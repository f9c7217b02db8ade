"""Smoke test: each script in scripts/ runs in a fresh interpreter against
the package in src/, and refuses a negative order or one past the limit
table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ["reproduce_tables.py", "qt_partition_sum_check.py"]


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
