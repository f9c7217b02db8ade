#!/usr/bin/env python3
"""Cross-check the path-statistic polynomial C_n(q,t) against the bounce
recurrence, whole, and against the partition sum at random rational points.

For each order, compares sum(q^area t^bounce) over the paths with the
Garsia-Haglund bounce recurrence term by term, then evaluates it and the
partition sum with exact rational arithmetic at seeded admissible points,
reporting the shared value.  Exits 1 at the first mismatch.
"""

import argparse

from dyckposet import (GH_POINT_SEED, gh_evaluate, gh_sample_points,
                       qt_catalan)
from dyckposet.config import LimitExceededError, check_order
from dyckposet.qt import _bounce_recurrence, _q_pascal


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--points", type=int, default=5)
    parser.add_argument("--seed-offset", type=int, default=0)
    args = parser.parse_args()
    try:
        check_order(args.max_n, "paths")
    except (LimitExceededError, ValueError) as exc:
        parser.error(str(exc))

    for n in range(args.max_n + 1):
        poly = qt_catalan(n)
        print(f"order {n}: C_n(q,t) has {len(poly.coeffs)} terms, "
              f"C_n(1,1) = {poly(1, 1)}")
        recurrence = _bounce_recurrence(n, *_q_pascal(2 * n))
        status = "ok" if recurrence == poly else "MISMATCH"
        print(f"  bounce recurrence -> {len(recurrence.coeffs)} terms "
              f"[{status}]")
        if recurrence != poly:
            raise SystemExit(1)
        for q0, t0 in gh_sample_points(
                n, args.points, seed=GH_POINT_SEED + args.seed_offset):
            lhs = poly.evaluate_exact(q0, t0)
            rhs = gh_evaluate(n, q0, t0)
            status = "ok" if lhs == rhs else "MISMATCH"
            print(f"  ({q0}, {t0}) -> paths {lhs}, partition sum {rhs} "
                  f"[{status}]")
            if lhs != rhs:
                raise SystemExit(1)


if __name__ == "__main__":
    main()
