#!/usr/bin/env python3
"""Recompute every headline table in one run.

Prints, per order: element count, interval count, total chains, maximal
chains, antichain censuses, width and Dilworth cover, rank sizes, and the
chromatic polynomial where the order-limit table allows it.
"""

import argparse

from dyckposet import (antichain_census, build_poset, catalan_closed,
                       chain_census, hasse_chromatic, interval_count,
                       rank_sizes)
from dyckposet.config import MAX_ORDER, LimitExceededError, check_order


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    args = parser.parse_args()
    try:
        check_order(args.max_n, "paths", "antichains", "maximal_antichains")
    except (LimitExceededError, ValueError) as exc:
        parser.error(str(exc))

    for n in range(args.max_n + 1):
        p = build_poset(n)
        print(f"== order {n} ==")
        print(f"  elements            {p.size} (Catalan {catalan_closed(n)})")
        chains = chain_census(p)
        print(f"  intervals           {interval_count(p)}")
        print(f"  total chains        {chains.total}")
        print(f"  maximal chains      {chains.maximal}")
        print(f"  chain polynomial    {chains.polynomial}")
        # the census has checked its width against the Dilworth matching
        every = antichain_census(p)
        width = max(every.by_size)
        maximal = antichain_census(p, "maximal")
        print(f"  antichains          {every.total} "
              f"(maximal {maximal.total}, width {width} "
              f"attained {every.by_size[width]}x)")
        print(f"  Dilworth cover      {width}")
        print(f"  rank sizes          {rank_sizes(n)}")
        if n <= MAX_ORDER["chromatic"]:
            print(f"  chromatic           {hasse_chromatic(p)}")
        print()


if __name__ == "__main__":
    main()
