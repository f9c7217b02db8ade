"""The order-limit table: the largest order each enumeration job accepts."""

from __future__ import annotations


class LimitExceededError(Exception):
    """Raised when an order exceeds its job's entry in MAX_ORDER."""


# The largest order each job accepts.  Every entry fits a budget of 120 s
# wall time and 4 GB peak RSS per CLI call, and each is held by one of three
# bounds: the project's scope, the cost one order past it, or the want of a
# second route to trust a value past the vendored snapshot.  Work that rides
# on a job checks that job's entry: the chain census and the parking census
# ride on paths, the order-ideal count on antichains.  Costs in-process on
# Python 3.11.7, one core of a shared 2-core x86-64 VM; a range is the
# minimum-median of one CLI call in each of 14 fresh processes, with its
# peak RSS:
#   counts              scope: every printed integer stays under Python's
#                       4300-digit str limit (the parking count (n+1)^(n-1)
#                       has 2998 digits at n = 1000); catalan takes
#                       26-27 ms at n = 1000 and at n = 1001, its second
#                       route adding Catalan's triangle row by row
#                       (115-124 ms and 116-121 ms by Segner's convolution,
#                       measured alongside)
#   paths               scope: no order past 8 is in the project's scope.
#                       qt --n 9 takes 9-14 ms and 17 MB; at n = 8, chains
#                       7.4-8.0 ms on its first call in a process and
#                       3.8-4.3 ms after, and 17.2-17.3 MB, the parking
#                       census 24-38 ms and 17 MB; the two parking listers
#                       no command runs take 38 s and 25 s, each near 860 MB
#   antichains          cost: antichains --n 7 exhausted memory with the
#                       tuple-valued size-polynomial memo, a 4 GB address
#                       limit after 47 s (3.5 GB RSS); split a chain at a
#                       time, the packed memo passed 1 M states and 312 MB
#                       in 4.5 s, where a probe stopped it.  The ideal
#                       count's chain-cut prototype passed 21 M states in
#                       114 s.  At n = 6 poset takes 67.8-70.0 ms and
#                       28 MB in a fresh process (68.6-70.6 ms before it
#                       computed the rank sizes once, measured alongside),
#                       and antichains 9.1-9.7 ms and 17 MB, its split
#                       reading each chain part from a run table built once
#                       per call (9.8-10.3 ms before, measured alongside)
#   maximal_antichains  two-route trust: the chain-split memo is the only
#                       route and the A143674 snapshot ends at 5; n = 6
#                       takes 113-117 ms (36,578 states, a 7.1 MiB
#                       tracemalloc peak; 115-122 ms before the chain part
#                       was read by its length), so cost no longer holds
#                       the cap
#   chromatic           two-route trust: the frontier DP is the only route
#                       and the A141622 snapshot ends at 4; n = 5 takes
#                       0.56-0.8 s and 24 MB (a frontier of 9, 9,089 states)
MAX_ORDER = {"counts": 1000, "paths": 8, "antichains": 6,
             "maximal_antichains": 5, "chromatic": 4}


def check_order(n: int, *jobs: str) -> None:
    """Refuse order n unless it is non-negative and every named job accepts
    it."""
    if n < 0:
        raise ValueError(f"order {n} is negative")
    for job in jobs:
        if n > MAX_ORDER[job]:
            raise LimitExceededError(
                f"order {n} exceeds the {job} limit {MAX_ORDER[job]}")
