"""Calibration kernel: a fixed amount of pure-Python work that tracks the
host's speed.

The reference box is a guest on a shared host whose speed swings by up to
a factor of two within seconds and drifts for minutes.  So the kernel is
run throughout every timed pass, from a timer signal (``Sampler``), and
just before and right after the import of every set-up probe.  run.py
reports times scaled to the kernel's nominal speed:
``measured * NOMINAL_S / kernel_time``.  The raw times are kept in the
result file.

The kernel mixes the work the workloads do: exact integer matrix products
in the style of ``ExactMatrix.__matmul__``, bitmask antichain enumeration,
and dicts keyed by tuples as in the polynomial and parking code.  It uses no
dyckposet code, so a change to the package never changes the kernel.

The kernel is short and runs often.  Runs of about 4 ms every 0.1 s tracked
the host's speed as well, but moved the peak RSS of a tables-n5 pass by up
to 1.8 MB from run to run; runs of about 1 ms every 25 ms move it by under
0.6 MB.
"""

import gc
import signal
import time

# About the kernel's wall time inside a pass on the reference box.  It only
# scales the reported values; comparisons do not depend on it.
NOMINAL_S = 0.0011
SAMPLE_EVERY_S = 0.025  # a sampler runs the kernel this often
PROBE_REPEATS = 40  # kernel runs on each side of a set-up probe


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def _antichains(n, comparable):
    found = 0
    for mask in range(1 << n):
        bits = [i for i in range(n) if mask >> i & 1]
        if all(not comparable[i] >> j & 1 for i in bits for j in bits):
            found += 1
    return found


def _tuple_dict(n):
    table = {}
    for i in range(n):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i
    return sum(sorted(table.values())[::7])


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    m = [[(i * 31 + j * 17) % 11 - 5 for j in range(10)] for i in range(10)]
    product = _matmul(_matmul(m, m), m)
    comparable = [((1 << i) - 1) & 0xAA | (0x55 << i & 0xFF)
                  for i in range(8)]
    return (product[3][5] + _antichains(8, comparable)
            + _tuple_dict(800))


def measure(repeats: int = 1) -> tuple[float, float]:
    """Mean wall and CPU seconds of one kernel run, over `repeats` runs.

    The garbage collector is off meanwhile: inside a pass that holds a
    large heap, a collection set off by the kernel would time the heap, not
    the host."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        cpu0, wall0 = time.process_time_ns(), time.perf_counter_ns()
        for _ in range(repeats):
            kernel()
        return ((time.perf_counter_ns() - wall0) / 1e9 / repeats,
                (time.process_time_ns() - cpu0) / 1e9 / repeats)
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Runs the kernel every SAMPLE_EVERY_S seconds between start() and
    stop(), from a one-shot SIGALRM timer that is re-armed after each run,
    so runs never nest.  Every run falls inside that interval, so the caller
    can take the kernel's total time out of the time it measured around
    it."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.samples.append(measure())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def report(self) -> dict[str, float]:
        """The kernel's total time while sampling, and its mean time per
        run: the host's speed over the interval.  An interval shorter than
        SAMPLE_EVERY_S has no run of its own, and borrows one taken now."""
        runs = self.samples or [measure()]
        return {"kernel_runs": len(self.samples),
                "kernel_total_wall_s": sum(w for w, _ in self.samples),
                "kernel_total_cpu_s": sum(c for _, c in self.samples),
                "kernel_wall_s": sum(w for w, _ in runs) / len(runs),
                "kernel_cpu_s": sum(c for _, c in runs) / len(runs)}
