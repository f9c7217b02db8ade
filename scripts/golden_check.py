#!/usr/bin/env python3
"""Run the recorded CLI ops on this interpreter and compare them byte for
byte.

The ops are every op of bench/golden/stdout.json and every op at its order
cap that has a pinned stdout (AT_LIMIT and PINNED in tests/pinned.py).  Each
goes through dyckposet.cli.main in this process, and its exit code and stdout
must equal the recorded ones.  Exits 0 when every op matches, and 1 at the
first that differs, naming it.  The golden file is only read.  Stdlib only,
so that it runs on every interpreter that requires-python admits:

    python3 -B scripts/golden_check.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dyckposet import cli  # noqa: E402
from pinned import AT_LIMIT, PINNED  # noqa: E402

GOLDEN = ROOT / "bench" / "golden" / "stdout.json"


def recorded_ops() -> dict:
    """Each op's command line, mapped to its recorded exit and stdout."""
    ops = dict(json.loads(GOLDEN.read_text())["ops"])
    for argv, _job, _mib in AT_LIMIT:
        op = " ".join(argv)
        if op in PINNED:
            ops[op] = PINNED[op]
    return ops


def run(op: str) -> tuple[int, str]:
    """The exit code and stdout of one op; its stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op.split())
    return code, out.getvalue()


def main() -> int:
    ops = recorded_ops()
    for op, want in ops.items():
        code, out = run(op)
        if code != want["exit"] or out != want["stdout"]:
            print(f"{op!r} differs: exit {code}, stdout {out!r}; recorded "
                  f"exit {want['exit']}, stdout {want['stdout']!r}",
                  file=sys.stderr)
            return 1
    print(f"{len(ops)} ops match on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
