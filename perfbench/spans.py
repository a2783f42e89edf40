"""In-memory span tracer that wraps credalbudget's public functions.

Each public function and public method defined in a layer module is wrapped
at every place it is looked up: the defining module, every other credalbudget
module that imported the name, and the class for methods. So a call through
``budget.maximin_regret`` or ``bench.regret_matrix`` is seen as well as one
through ``credalbudget.regret.maximin_regret``. Private names are never
wrapped, so a refactor that removes them cannot break the tracer. Spans are
named after the defining module; call counts are also kept per lookup site.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from enum import Enum

LAYERS = ("cli", "problemio", "gen", "credal", "simplex", "regret", "budget", "instances")

PACKAGE = "credalbudget"


class Tracer:
    """Records (name, start, end, parent, op) spans while `active` is set."""

    def __init__(self):
        self.active = False
        self.op = None
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[object] = []
        self.found: list[bool] = []
        self.site_calls: Counter = Counter()
        self.wrapped: set[str] = set()
        self.sites: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        """Wrap the layer modules' public functions and methods at each site."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        originals: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, Enum):
                    self._wrap_methods(obj, f"{layer}.{attr}")
        for modname, mod in modules.items():
            site = modname.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, self._wrap(obj, hit[1], f"{site}.{attr}"))

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name, name))

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, func, name: str, site: str):
        tracer = self
        split_form = name == "regret.regret_matrix"
        self.wrapped.add(name)
        self.sites.add(site)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            span = name
            if split_form:  # the vertex max and the per-pair LPs are different layers
                credal = args[1] if len(args) > 1 else kwargs.get("credal")
                span += ".vertex" if credal.is_vertex_form else ".constraint"
            tracer.site_calls[site] += 1
            idx = len(tracer.names)
            tracer.names.append(span)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op)
            tracer.found.append(False)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = func(*args, **kwargs)
                tracer.found[idx] = result is not None
                return result
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ms, total_ms and found (non-None results).

        Self time is a span's duration minus the durations of its direct
        children; children run inside their parent on the one thread, so
        their intervals never overlap.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[idx]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "found": 0}
        )
        for idx, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["self_ms"] += 1e3 * (durations[idx] - child_time[idx])
            row["total_ms"] += 1e3 * durations[idx]
            row["found"] += self.found[idx]
        return dict(out)

    def write_jsonl(self, path) -> None:
        """Write one JSON object per span: name, start, end, parent, op."""
        with open(path, "w") as handle:
            for idx, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": self.starts[idx],
                            "end": self.ends[idx],
                            "parent": self.parents[idx],
                            "op": self.ops[idx],
                        }
                    )
                    + "\n"
                )
