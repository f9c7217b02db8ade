#!/usr/bin/env python3
"""Cross-check the two q,t-Catalan routes at random rational points.

For each order, evaluates the path-statistic polynomial sum(q^area t^bounce)
and the partition sum with exact rational arithmetic at seeded admissible
points, reporting the shared value.
"""

import argparse

from dyckposet import (GH_POINT_SEED, gh_evaluate, gh_sample_points,
                       qt_catalan)
from dyckposet.config import LimitExceededError, check_order


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--points", type=int, default=5)
    parser.add_argument("--seed-offset", type=int, default=0)
    args = parser.parse_args()
    try:
        check_order(args.max_n, "paths")
    except LimitExceededError as exc:
        parser.error(str(exc))

    for n in range(args.max_n + 1):
        poly = qt_catalan(n)
        print(f"order {n}: C_n(q,t) has {len(poly.coeffs)} terms, "
              f"C_n(1,1) = {poly(1, 1)}")
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
