"""Smoke test: each script in scripts/ runs in a fresh interpreter against
the package in src/, and refuses a negative order or one past the limit
table.  The golden check runs on every other interpreter of the image that
requires-python admits."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ["reproduce_tables.py", "qt_partition_sum_check.py"]
# requires-python in pyproject.toml
OLDEST = (3, 10)
PYENV = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *argv], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("name", SCRIPTS)
def test_runs_at_small_order(name):
    result = run_script(name, "--max-n", "3")
    assert result.returncode == 0, result.stderr
    assert "order 3" in result.stdout


def test_partition_sum_check_compares_the_bounce_recurrence():
    result = run_script("qt_partition_sum_check.py", "--max-n", "3")
    lines = [line for line in result.stdout.splitlines()
             if "bounce recurrence" in line]
    # one line per order 0..3, C_3(q,t) having 5 terms
    assert len(lines) == 4
    assert all(line.endswith("[ok]") for line in lines)
    assert lines[3] == "  bounce recurrence -> 5 terms [ok]"


@pytest.mark.parametrize("name", SCRIPTS)
def test_refuses_past_limit(name):
    result = run_script(name, "--max-n", "9")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "exceeds" in result.stderr


@pytest.mark.parametrize("name", SCRIPTS)
def test_refuses_negative_order(name):
    result = run_script(name, "--max-n", "-1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "order -1 is negative" in result.stderr
    assert "Traceback" not in result.stderr


def _version(name):
    """(major, minor) from a name such as 3.10.13 or python3.11, or None."""
    found = re.search(r"(\d+)\.(\d+)", name)
    return found and (int(found[1]), int(found[2]))


def _other_interpreters():
    """The interpreters of version OLDEST or later besides this one, each
    once by real path: pyenv's versions, and python3.1x on PATH (pyenv's
    shims, which pick a version by configuration, excepted)."""
    found = []
    if (PYENV / "versions").is_dir():
        found += [path / "bin" / "python3"
                  for path in sorted((PYENV / "versions").iterdir())
                  if (_version(path.name) or (0, 0)) >= OLDEST]
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        if Path(folder) != PYENV / "shims":
            found += [Path(folder) / f"python3.{minor}"
                      for minor in range(OLDEST[1], 20)]
    seen = {os.path.realpath(sys.executable)}
    interpreters = []
    for path in found:
        real = os.path.realpath(path)
        if os.access(real, os.X_OK) and real not in seen:
            seen.add(real)
            interpreters.append(str(path))
    return interpreters


def test_golden_ops_match_on_every_interpreter():
    interpreters = _other_interpreters()
    if not interpreters:
        # where pyenv is installed, finding none is a fault of the search
        assert not PYENV.is_dir(), f"no interpreter found under {PYENV}"
        pytest.skip("no other interpreter installed")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for python in interpreters:
        result = subprocess.run(
            [python, "-B", str(ROOT / "scripts" / "golden_check.py")],
            env=env, capture_output=True, text=True, timeout=120)
        print(python, result.stdout.strip())
        assert result.returncode == 0, (python, result.stderr)
        assert " ops match on Python 3." in result.stdout


def test_golden_check_names_the_first_differing_op(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "golden_check", ROOT / "scripts" / "golden_check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    ops = check.recorded_ops()
    # the golden ops and the three AT_LIMIT ops with a pinned stdout
    assert {"chains --n 8", "poset --n 6", "parking --n 8"} <= set(ops)
    first = next(iter(ops))
    monkeypatch.setattr(check, "run", lambda op: (0, ""))
    assert check.main() == 1
    assert capsys.readouterr().err.startswith(repr(first))
