"""Repository tooling: the pytest configuration reports a failing property
test as one failure, the README's examples run as shown, and the runtime
needs no package but numpy."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import credalbudget
from credalbudget import cli

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
README = (ROOT / "README.md").read_text(encoding="utf-8")

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output


def _readme_block(heading: str, language: str) -> str:
    """The first fenced `language` block in the README section `heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_runs():
    exec(_readme_block("Library use", "python"), {})


def test_every_exported_name_resolves():
    for name in credalbudget.__all__:
        assert getattr(credalbudget, name) is not None, name


def test_readme_quick_start_outputs_match(tmp_path, monkeypatch, capsys):
    # Each command followed by a "# ..." line prints that line, less any "<- ..." note.
    monkeypatch.chdir(tmp_path)
    lines = _readme_block("CLI quick start", "sh").splitlines()
    assert lines[0].startswith("credalbudget examples --dump ")
    assert cli.main(shlex.split(lines[0])[1:]) == 0
    checked = 0
    for command, shown in zip(lines, lines[1:]):
        if not (command.startswith("credalbudget ") and shown.startswith("# ")):
            continue
        capsys.readouterr()
        assert cli.main(shlex.split(command)[1:]) == 0, command
        want = shown[2:].split("<-", 1)[0].rstrip()
        assert capsys.readouterr().out == want + "\n", command
        checked += 1
    assert checked == 3


NUMPY_ONLY = """
import sys


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "hypothesis", "pytest"):
            raise ModuleNotFoundError(f"{name}: not a runtime dependency")
        return None


sys.meta_path.insert(0, Refuse())
from credalbudget import cli

codes = [cli.main(["examples"]), cli.main(["solve", "--problem", sys.argv[1], "--k", "1"])]
print(codes)
"""


def test_runtime_needs_only_numpy(tmp_path):
    # scipy is a test extra: the CLI runs with scipy, hypothesis and pytest refused
    problem = tmp_path / "rows.json"
    problem.write_text(json.dumps({
        "states": ["s", "t", "u"],
        "acts": [{"name": "a", "payoffs": [1, 2, 0]}, {"name": "b", "payoffs": [2, 0, 1]}],
        "credal": {"constraints": [{"coeffs": [1, 0, 0], "relation": ">=", "rhs": 0.2}]},
    }))
    env = {**os.environ, "PYTHONPATH": str(Path(credalbudget.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, str(problem)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0]"
