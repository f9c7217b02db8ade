"""Workload child process: runs one workload's op script in timed passes.

run.py starts this file in a fresh interpreter with a pinned environment, so
that peak RSS is the high-water mark of one workload alone.  It prints one
JSON report as the last line of its standard output; the stdout of every op
is captured and compared with the golden output, never printed.

An untraced pass runs the calibration kernel throughout (calibrate.py) and
reports its times with the kernel's own time taken out.

An op is either a CLI op, an argv for ``dyckposet.cli.main`` whose exit code
and stdout must equal the golden capture, or a library op, a route check
that returns ``None`` when its two routes agree.
"""

import time

# set-up ends when the package is imported; the import share is reported.
# The harness's own imports come after, so set-up is interpreter start plus
# the package import alone.
PACKAGE_IMPORT_STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)
from dyckposet import cli, qt  # noqa: E402
IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import calibrate  # noqa: E402
from tracer import COUNTERS, Tracer, wrapper_cost_ns  # noqa: E402

WORKLOADS = ("tables-n5", "chains-n6", "antichains-n6")
GOLDEN = Path(__file__).resolve().parent / "golden" / "stdout.json"
VERIFY_SEQUENCES = ("A000108", "A000272", "A005118", "A005700", "A129176",
                    "A141622", "A143672", "A143673", "A143674")


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...] | None = None
    check: Callable[[], "str | None"] | None = None


def cli_op(*argv) -> Op:
    argv = tuple(str(a) for a in argv)
    return Op(id=" ".join(argv), argv=argv)


def qt_route_op(n: int, index: int, q0, t0) -> Op:
    def check():
        by_paths = qt.qt_catalan(n).evaluate_exact(q0, t0)
        by_partitions = qt.gh_evaluate(n, q0, t0)
        if by_paths != by_partitions:
            return (f"q,t-Catalan {by_paths} != partition sum "
                    f"{by_partitions}")
        return None
    return Op(id=f"qt-routes n={n} point={index} ({q0}, {t0})", check=check)


def script(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The fixed op list of a workload; tiny shrinks every order for the
    harness self-test.  Only tables-n5 draws inputs from the seed."""
    if workload == "chains-n6":
        return [cli_op("chains", "--n", 3 if tiny else 6)]
    if workload == "antichains-n6":
        return [cli_op("antichains", "--n", 3 if tiny else 6)]
    if workload != "tables-n5":
        raise ValueError(f"unknown workload {workload!r}")
    top, extra, qt_top = (2, 3, 3) if tiny else (5, None, 8)
    ops = []
    for n in range(top + 1):
        ops += [cli_op("catalan", "--n", n), cli_op("poset", "--n", n),
                cli_op("chains", "--n", n)]
        ops += [cli_op("antichains", "--n", n, "--mode", mode)
                for mode in ("all", "maximal", "maximum")]
        ops += [cli_op("qt", "--n", n), cli_op("parking", "--n", n)]
    ops += [cli_op("chromatic", "--n", n) for n in range(min(top, 4) + 1)]
    ops += [cli_op("parking", "--n", extra or 6), cli_op("qt", "--n", extra or 8),
            cli_op("catalan", "--n", extra or 8),
            cli_op("--format", "csv", "poset", "--n", top)]
    for sequence in VERIFY_SEQUENCES:
        order = ("--n", 2) if tiny else ()
        ops.append(cli_op("verify", "--sequence", sequence, *order))
    for n in range(1, qt_top + 1):
        for index, (q0, t0) in enumerate(qt.gh_sample_points(n, 3, seed=seed)):
            ops.append(qt_route_op(n, index, q0, t0))
    return ops


def load_golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())["ops"]


def run_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    """Exit code and captured stdout of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _first_difference(a: str, b: str) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def run_op(op: Op, golden: dict[str, dict], tracer: Tracer | None):
    """Run one op; return the reason it failed, or None."""
    try:
        if op.check is not None:
            return op.check()
        code, stdout = run_cli(op.argv)
    except Exception:  # an op that raises is a failed op; keep running
        return "raised " + traceback.format_exc(limit=-1).strip()
    if tracer is not None:
        tracer.counters["cli.bytes_out"] += len(stdout.encode())
    expected = golden.get(op.id)
    if expected is None:
        return "no golden output for this op"
    if code != expected["exit"]:
        return f"exit code {code}, golden {expected['exit']}"
    if stdout != expected["stdout"]:
        at = _first_difference(stdout, expected["stdout"])
        return (f"stdout differs from golden at character {at}: "
                f"{stdout[at:at + 40]!r} vs {expected['stdout'][at:at + 40]!r}")
    return None


def run_pass(ops: list[Op], golden: dict[str, dict],
             tracer: Tracer | None = None,
             sampler: calibrate.Sampler | None = None) -> dict:
    """One pass over the script: wall and CPU seconds and every failure.
    With a sampler, the kernel's own time is taken out of both."""
    failures = []
    if tracer is not None:
        tracer.install()
        root = tracer.root("harness", "pass")
    cpu0, wall0 = time.process_time_ns(), time.perf_counter_ns()
    if sampler is not None:
        sampler.start()
    try:
        for op in ops:
            reason = run_op(op, golden, tracer)
            if reason is not None:
                failures.append({"op": op.id, "reason": reason})
    finally:
        if sampler is not None:
            sampler.stop()
        wall = (time.perf_counter_ns() - wall0) / 1e9
        cpu = (time.process_time_ns() - cpu0) / 1e9
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    result = {"wall_s": wall, "cpu_s": cpu, "failures": failures}
    if sampler is not None:
        kernel = sampler.report()
        result["wall_s"] -= kernel.pop("kernel_total_wall_s")
        result["cpu_s"] -= kernel.pop("kernel_total_cpu_s")
        result.update(kernel)
    return result


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def layer_report(tracer: Tracer) -> dict[str, float]:
    report = {}
    for layer, totals in tracer.layer_totals().items():
        report[f"{layer}.self_s"] = totals["self_s"]
        if layer != "harness":
            report[f"{layer}.calls"] = totals["calls"]
    for key in COUNTERS:
        report[key] = tracer.counters[key]
    report["trace.spans"] = len(tracer.spans)
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes, all traced or all untraced, for at least `seconds`."""
    ops = script(workload, seed)
    golden = load_golden()
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        tracer = Tracer() if trace else None
        # an untraced pass samples the host's speed throughout; a traced
        # one runs no kernel inside its spans
        sampler = None if trace else calibrate.Sampler()
        result = run_pass(ops, golden, tracer, sampler)
        if tracer is not None:
            result["tracer"] = tracer
        passes.append(result)
        if len(passes) == 1:
            # later passes only add allocator creep, and their number
            # varies with machine speed
            first_pass_rss_kb = peak_rss_kb()
    report = {
        "ops_per_pass": len(ops),
        "passes": [{k: v for k, v in p.items()
                    if k not in ("failures", "tracer")} for p in passes],
        "failures": [f for p in passes for f in p["failures"]],
        "attempted": len(ops) * len(passes),
        "first_pass_rss_kb": first_pass_rss_kb,
        "peak_rss_kb": peak_rss_kb(),
    }
    if trace:
        walls = sorted(p["wall_s"] for p in passes)
        chosen = next(p for p in passes
                      if p["wall_s"] == walls[(len(walls) - 1) // 2])
        tracer = chosen["tracer"]
        span_ns, counted_ns = wrapper_cost_ns()
        spans, counted = tracer.wrapper_calls()
        cost_s = (spans * span_ns + counted * counted_ns) / 1e9
        report["traced"] = {
            "pass_s": chosen["wall_s"],
            "overhead": chosen["wall_s"] / (chosen["wall_s"] - cost_s),
            "wrapper_ns": {"span": span_ns, "counted_call": counted_ns},
            "layers": layer_report(tracer),
            "spans": tracer.spans,
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="report set-up times and exit")
    args = parser.parse_args(argv)
    report = {"setup_s": IMPORTED - args.spawned_at,
              "import_s": IMPORTED - PACKAGE_IMPORT_STARTED,
              "package": cli.__file__}
    if args.setup_only:
        # the host's speed right after this start-up
        report["kernel_wall_s"] = calibrate.measure(
            calibrate.PROBE_REPEATS)[0]
    else:
        report.update(measure(args.workload, args.seed, args.seconds,
                              bool(args.trace)))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
