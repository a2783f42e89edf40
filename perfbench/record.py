#!/usr/bin/env python3
"""Store every op's output at the default seed as the benchmark's reference.

    python3 perfbench/record.py

Run this only at a commit whose outputs are trusted: later runs of
``run.py`` count every op that disagrees with these files as failed.
Workloads whose inputs do not depend on the seed are stored with seed null
and are compared at every seed.
"""

from __future__ import annotations

import json
import shutil

import run
import workloads

DEFAULT_SEED = 0


def record(workload: str) -> None:
    cb = run.import_package()
    workdir = run.OUT / "record"
    try:
        ops = workloads.WORKLOADS[workload](cb, DEFAULT_SEED, workdir)
        outputs = {op.id: op.record(op.run()) for op in sorted(ops, key=lambda op: op.id)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    seed = None if workload in workloads.SEED_FREE else DEFAULT_SEED
    path = run.EXPECTED / f"{workload}.json"
    lines = ",\n".join(f"{json.dumps(op_id)}: {json.dumps(out)}" for op_id, out in outputs.items())
    path.write_text(f'{{"seed": {json.dumps(seed)}, "ops": {{\n{lines}\n}}}}\n')
    print(f"wrote {len(outputs)} op outputs to {path}")


def main() -> None:
    run.EXPECTED.mkdir(exist_ok=True)
    for name in sorted(workloads.WORKLOADS):
        record(name)


if __name__ == "__main__":
    main()
