"""The order-limit table: the largest order each enumeration job accepts."""

from __future__ import annotations


class LimitExceededError(Exception):
    """Raised when an order exceeds its job's entry in MAX_ORDER."""


# The largest order each job accepts, sized to a budget of 120 s wall time
# and 4 GB peak RSS per CLI call.  Cost one order past each entry, in-process
# on Python 3.11.7, one core of a shared 2-core x86-64 VM:
#   counts              the Catalan recurrence at n = 1001 takes 0.3 s; the
#                       entry stops at 1000 so every printed integer stays
#                       under Python's 4300-digit str limit (the parking
#                       count (n+1)^(n-1) has 2998 digits at n = 1000)
#   paths               qt --n 9 takes 0.05 s and 19 MB, its 4,862 paths
#                       joined from half-length sweeps; 8 is the former
#                       default cap, below budget, and the base of every
#                       poset job
#   chains              chains --n 8 takes 0.2 s and 18 MB, split between the
#                       packed chain DP (0.1-0.2 s) and the total-chain solve
#                       (0.1 s); the entry is raised together with a
#                       chains --n 8 benchmark workload
#   antichains          antichains --n 7 exhausted memory with the
#                       tuple-valued size-polynomial memo: a 4 GB address
#                       limit after 47 s (3.5 GB RSS); split a chain at a
#                       time, the packed memo passed 1 M states and 312 MB
#                       in 4.5 s, where a probe stopped it.  n = 6 takes
#                       0.013 s in-process and 18 MB peak RSS
#   maximal_antichains  the maximal census at n = 6 takes 66 s and 16 MB: its
#                       DFS visits all 37,620,704 antichains
#   order_ideals        poset --n 6 takes 0.2 s and 29 MB (its ideal count
#                       0.09-0.16 s, 94,012 memo states); the entry is
#                       raised together with a poset --n 6 workload
#   chromatic           hasse_chromatic at n = 5 takes 0.8 s and 24 MB (a
#                       frontier of 9, 9,089 states); the entry is raised
#                       together with a chromatic --n 5 workload and a
#                       second route at n = 5
#   parking             the census at n = 7 takes 0.006-0.010 s and 17 MB
#                       peak RSS (n = 8: 0.05 s, 18 MB), below budget; 6
#                       keeps parking --n 7 to the closed count
MAX_ORDER = {"counts": 1000, "paths": 8, "chains": 7, "antichains": 6,
             "maximal_antichains": 5, "order_ideals": 5, "chromatic": 4,
             "parking": 6}


def check_order(n: int, *jobs: str) -> None:
    """Refuse order n unless it is non-negative and every named job accepts
    it."""
    if n < 0:
        raise ValueError(f"order {n} is negative")
    for job in jobs:
        if n > MAX_ORDER[job]:
            raise LimitExceededError(
                f"order {n} exceeds the {job} limit {MAX_ORDER[job]}")
