#!/usr/bin/env python3
"""Capture the golden exit code and stdout of every CLI op of every workload.

    python3 bench/capture_golden.py

Run it only at a commit whose outputs are trusted: every benchmark run
compares each op with these captures byte for byte.  It covers the full and
the tiny (self-test) scripts, takes about a minute and about 2 GB of memory,
because ``antichains --n 6`` is one of the ops, and writes
bench/golden/stdout.json.
"""

import json
import os
import sys

from run import git_revision, pinned_env, source_digest


def main() -> int:
    env = pinned_env()
    if any(os.environ.get(k) != env.get(k)
           for k in ("PYTHONHASHSEED", "PYTHONPATH", "DYCKPOSET_MAX_N")):
        # re-exec under the same pinned environment the benchmark uses
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  env)
    import workload

    argvs = {op.id: op.argv for name in workload.WORKLOADS
             for tiny in (False, True)
             for op in workload.script(name, seed=0, tiny=tiny)
             if op.argv is not None}
    ops = {}
    for op_id in sorted(argvs):
        code, stdout = workload.run_cli(argvs[op_id])
        ops[op_id] = {"exit": code, "stdout": stdout}
        print(f"exit {code} {len(stdout):6d} bytes  {op_id}", file=sys.stderr)
    captured = {"captured_from": {"git_revision": git_revision(),
                                  "src_sha256": source_digest()},
                "ops": ops}
    workload.GOLDEN.parent.mkdir(exist_ok=True)
    workload.GOLDEN.write_text(
        json.dumps(captured, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
