#!/usr/bin/env python3
"""Benchmark of the dyckposet CLI: one workload, one run.

    python3 bench/run.py --workload tables-n5 --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the code measured is the checkout's
``src/``.  Each run alternates batches of set-up probes with fresh workload
processes (bench/workload.py), prints every metric as ``name value unit``,
writes bench/results/BENCH_<workload>_seed<seed>_trace<t>.json, and prints
one JSON object as its last line.  It exits 0 when every op matched its
golden output and every route check agreed, 1 when an op failed, and 2 when
it could not measure at all.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# An untraced run splits its passes over up to SEGMENTS workload processes,
# with a batch of set-up probes before each and after the last, so that the
# probes are spread over the run.  The machine's speed changes within
# seconds, and probes bunched in one window make a median that jumps
# between runs.
SEGMENTS = 4
PROBE_BATCH = 6
SETUP_PROBES = 40  # at least; the last batch makes up the rest
PROBE_TIMEOUT_S = 30
DEADLINE_S = 170  # a run must end well within three minutes
PROBE_RESERVE_S = 15  # kept for the probes after the last workload process


class BenchError(Exception):
    """The run could not measure; no result is printed."""


def pinned_env() -> dict[str, str]:
    """The child environment: results must not depend on the caller's."""
    env = dict(os.environ)
    env.pop("DYCKPOSET_MAX_N", None)  # Limits.from_env() would change results
    env["PYTHONHASHSEED"] = "0"
    rest = [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
            if p and p != str(SRC)]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + rest)
    return env


def spawn(args: list[str], env: dict[str, str], timeout: float) -> dict:
    """Run bench/workload.py in a fresh interpreter and parse its report."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    command = [sys.executable, str(BENCH / "workload.py"), *args,
               "--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}")
    report = json.loads(lines[-1])
    if not Path(report["package"]).resolve().is_relative_to(SRC):
        raise BenchError(f"measured {report['package']}, not the code in {SRC}")
    return report


def scaled(sample: dict, key: str, kernel_key: str) -> float:
    """A time scaled to the calibration kernel's nominal speed: the kernel
    ran beside it, so the host's speed at the time cancels."""
    return sample[key] * calibrate.NOMINAL_S / sample[kernel_key]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dyckposet").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
            timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def run(workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return the printed result and the result file."""
    started = time.monotonic()
    load_before = os.getloadavg()
    env = pinned_env()
    common = ["--workload", workload, "--seed", str(seed)]

    def probe() -> dict:
        # the host's speed around the probe: kernel runs here just before
        # it and in the probe just after its import
        before = calibrate.measure(calibrate.PROBE_REPEATS)[0]
        report = spawn(common + ["--seconds", "0", "--setup-only"], env,
                       PROBE_TIMEOUT_S)
        report["kernel_wall_s"] = (before + report["kernel_wall_s"]) / 2
        return report

    def probe_batch(count: int) -> list[dict]:
        return [probe() for _ in range(count)]

    # the traced report is one median pass of one process
    segments = 1 if trace else SEGMENTS
    probe_batch(1)  # unmeasured: writes the bytecode caches
    probes, children, measured = [], [], 0.0
    for left in range(segments, 0, -1):
        # a process overruns its share by part of a pass; the next share
        # is cut to match
        probes += probe_batch(PROBE_BATCH)
        children.append(spawn(
            common + ["--seconds", str((seconds - measured) / left),
                      "--trace", str(int(trace))], env,
            DEADLINE_S - PROBE_RESERVE_S - (time.monotonic() - started)))
        passes = [p for c in children for p in c["passes"]]
        measured = sum(p["wall_s"] for p in passes)
        if measured >= seconds:
            break
    probes += probe_batch(max(PROBE_BATCH, SETUP_PROBES - len(probes)))
    first = children[0]  # peak RSS is its first pass's high-water mark
    failures = [f for c in children for f in c["failures"]]

    attempted = sum(c["attempted"] for c in children)
    failed = len(failures)
    setup = [p["setup_s"] for p in probes]
    imports = [p["import_s"] for p in probes]
    if trace:
        traced = first["traced"]
        values = dict(traced["layers"])
        values.update({"trace.overhead": traced["overhead"],
                       "trace.pass_s": traced["pass_s"],
                       "setup.import_s": median(imports)})
        wanted = SPEC["per_layer"]
    else:
        values = {"setup_s": median(scaled(p, "setup_s", "kernel_wall_s")
                                    for p in probes),
                  "wall_s": median(scaled(p, "wall_s", "kernel_wall_s")
                                   for p in passes),
                  "cpu_s": median(scaled(p, "cpu_s", "kernel_cpu_s")
                                  for p in passes),
                  "peak_rss_mb": first["first_pass_rss_kb"] / 1024,
                  "op_ok_ratio": (attempted - failed) / attempted}
        wanted = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "child_env": {"PYTHONHASHSEED": env["PYTHONHASHSEED"],
                      "PYTHONPATH": env["PYTHONPATH"],
                      "DYCKPOSET_MAX_N": "unset"},
        "op_fail_ratio": failed / attempted,
        "samples": {"setup_s": setup, "import_s": imports,
                    "setup_kernel_wall_s": [p["kernel_wall_s"]
                                            for p in probes],
                    "passes": passes},
        "ops_per_pass": first["ops_per_pass"],
        "workload_processes": len(children),
        "child_setup_s": [c["setup_s"] for c in children],
        "peak_rss_kb_all_passes": max(c["peak_rss_kb"] for c in children),
        "failures": failures,
        "result": result,
    }
    if trace:
        record["traced"] = first["traced"]
    else:
        record["raw_medians"] = {
            "setup_s": median(setup),
            "wall_s": median(p["wall_s"] for p in passes),
            "cpu_s": median(p["cpu_s"] for p in passes)}
    return result, record


def report_lines(result: dict, record: dict) -> list[str]:
    lines = [f"{name} {m['value']!r} {m['unit']}"
             for name, m in result["metrics"].items()]
    samples = record["samples"]
    kind = "traced" if record["trace"] else "untraced"
    lines.append(f"# {len(samples['passes'])} {kind} passes of "
                 f"{record['ops_per_pass']} ops; {len(samples['setup_s'])} "
                 "set-up probes; medians reported")
    if not record["trace"]:
        raw = record["raw_medians"]
        lines.append("# times above are scaled to the calibration kernel's "
                     "nominal speed; raw medians: " + ", ".join(
                         f"{k} {v!r}" for k, v in raw.items()))
    lines.append(f"# op_fail_ratio {record['op_fail_ratio']!r} "
                 f"({result['failed']} of {result['attempted']} ops failed)")
    lines += [f"FAILED {f['op']}: {f['reason']}" for f in record["failures"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dyckposet" / "cli.py").is_file():
        print(f"error: no dyckposet sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (f"BENCH_{args.workload}_seed{args.seed}"
                      f"_trace{args.trace}.json")
    path.write_text(json.dumps(record) + "\n")
    print("\n".join(report_lines(result, record)))
    print(f"# result file {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
