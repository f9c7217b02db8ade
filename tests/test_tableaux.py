from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from dyckposet import (Partition, cell_stats, hook_lengths,
                       maxchain_tableau_bijection_check, staircase_maxchain,
                       syt_count)
from dyckposet.qt import _partition_hooks, _partitions


def _syt_brute(partition):
    """Oracle: place 1..N in reading order, filter row/column increase."""
    cells = partition.cells()
    count = 0
    for perm in permutations(range(1, len(cells) + 1)):
        filling = dict(zip(cells, perm))
        if all(filling.get((r, c + 1), 10 ** 9) > v
               and filling.get((r + 1, c), 10 ** 9) > v
               for (r, c), v in filling.items()):
            count += 1
    return count


def _row_scan_stats(partition):
    """Oracle: (arm, leg, coarm, coleg) of every cell in row-major order,
    each leg counted by scanning the rows below the cell."""
    parts = partition.parts
    return {(r, c): (size - c, sum(1 for p in parts[r:] if p >= c),
                     c - 1, r - 1)
            for r, size in enumerate(parts, start=1)
            for c in range(1, size + 1)}


class TestHookLengths:
    @pytest.mark.parametrize("n", range(9))
    def test_cell_stats_match_the_row_scan(self, n):
        oracles = [_row_scan_stats(mu) for mu in _partitions(n)]
        assert [cell_stats(mu) for mu in _partitions(n)] == oracles
        # the partition sum reads the same table in row-major order
        assert _partition_hooks(n) == tuple(tuple(oracle.values())
                                            for oracle in oracles)

    def test_staircase_hooks_are_odd(self):
        # the staircase shape has hook multiset {(2i-1) with multiplicity n-i}
        for n in range(2, 7):
            diagram = hook_lengths(Partition.staircase(n))
            expected = sorted(h for i in range(1, n)
                              for h in [2 * i - 1] * (n - i))
            assert sorted(diagram.hooks.values()) == expected

    def test_hook_example(self):
        diagram = hook_lengths(Partition((4, 2, 1)))
        assert diagram.hooks[(1, 1)] == 6
        assert diagram.hooks[(1, 4)] == 1
        assert diagram.hooks[(3, 1)] == 1

    def test_hook_product_times_count_is_factorial(self):
        for parts in [(2, 1), (3, 2, 1), (4, 2), (2, 2, 2)]:
            p = Partition(parts)
            product = 1
            for h in hook_lengths(p).hooks.values():
                product *= h
            assert syt_count(p) * product == factorial(p.area)


class TestSytCounts:
    @pytest.mark.parametrize("parts", [
        (), (1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2, 1),
        (4, 2, 1), (3, 3, 1),
    ])
    def test_formula_matches_brute_force(self, parts):
        p = Partition(parts)
        assert syt_count(p) == _syt_brute(p)

    def test_rectangle_values(self):
        assert syt_count(Partition((2, 2))) == 2
        assert syt_count(Partition((3, 3))) == 5  # ballot sequences

    def test_staircase_route_consistency(self):
        for n in range(1, 8):
            assert staircase_maxchain(n) == syt_count(Partition.staircase(n))

    def test_staircase_values(self):
        assert [staircase_maxchain(n) for n in range(1, 7)] == \
            [1, 1, 2, 16, 768, 292864]

    def test_staircase_order_zero_and_negative(self):
        # C(0,2)! over an empty product; a negative order has no staircase
        assert staircase_maxchain(0) == 1
        with pytest.raises(ValueError):
            staircase_maxchain(-1)


class TestMaxchainBijection:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bijection(self, n):
        assert maxchain_tableau_bijection_check(n)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=0,
                max_size=4).map(lambda xs: tuple(sorted(xs, reverse=True))))
def test_syt_count_positive_and_bounded(parts):
    p = Partition(parts)
    count = syt_count(p)
    assert 1 <= count <= factorial(p.area) or p.area == 0
