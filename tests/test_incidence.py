import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import comb, prod
from operator import or_
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from dyckposet import (ExactMatrix, build_poset, chain_census,
                       chain_polynomial, fan_chain_polynomial, incidence,
                       interval_count, maximal_chain_count,
                       maximal_chain_solve, mobius_matrix, paths, poset,
                       staircase_maxchain, total_chains, zeta_matrix)
from dyckposet.cli import EXIT_INTERNAL, EXIT_OK, main
from dyckposet.polynomials import UniPoly
from oracles import (covers, ideal_lattice, invert_unitriangular,
                     list_chain_polynomial, poset_record)

ZETA_D3 = [
    [1, 1, 1, 1, 1],
    [0, 1, 0, 1, 1],
    [0, 0, 1, 1, 1],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 1],
]
MOBIUS_D3 = [
    [1, -1, -1, 1, 0],
    [0, 1, 0, -1, 0],
    [0, 0, 1, -1, 0],
    [0, 0, 0, 1, -1],
    [0, 0, 0, 0, 1],
]

TOTAL_CHAINS = [1, 2, 4, 24, 816, 239968]
INTERVALS = [1, 1, 3, 14, 84, 594, 4719, 40898, 379236]
MAXIMAL = [1, 1, 1, 2, 16, 768]

CHAIN_POLY_3 = UniPoly.from_list([1, 5, 9, 7, 2])
CHAIN_POLY_4 = UniPoly.from_list([1, 14, 70, 176, 249, 202, 88, 16])


def _delta_minus(scale, m):
    """The rows of scale * delta - m."""
    return [[scale * (i == j) - a for j, a in enumerate(row)]
            for i, row in enumerate(m.rows)]


def eta_matrix(p):
    """Oracle: the cover relation as a dense 0/1 matrix."""
    return ExactMatrix([[int(covers(p, i, j)) for j in range(p.size)]
                        for i in range(p.size)])


def total_chain_matrix(p):
    """Oracle: (2*delta - zeta)^{-1}, by dense back substitution."""
    return invert_unitriangular(ExactMatrix(_delta_minus(2, zeta_matrix(p))))


def _entry_sum(m):
    return sum(map(sum, m.rows))


class TestExactMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2]])

    def test_inverse_of_unitriangular(self):
        m = ExactMatrix([[1, 3, 5], [0, 1, -2], [0, 0, 1]])
        inv = invert_unitriangular(m)
        assert m @ inv == ExactMatrix.identity(3)
        assert inv @ m == ExactMatrix.identity(3)

    def test_inverse_rejects_general_matrix(self):
        with pytest.raises(ValueError):
            invert_unitriangular(ExactMatrix([[2, 0], [0, 1]]))
        with pytest.raises(ValueError):
            invert_unitriangular(ExactMatrix([[1, 0], [1, 1]]))


class TestAgainstPrintedMatrices:
    def test_zeta_d3(self, posets):
        assert zeta_matrix(posets(3)).rows == ZETA_D3

    def test_mobius_d3(self, posets):
        assert mobius_matrix(posets(3)).rows == MOBIUS_D3

    def test_mobius_is_the_inverse_of_zeta(self, posets):
        # the crosscut columns against dense back substitution
        for n in range(7):
            p = posets(n)
            mobius = mobius_matrix(p)
            assert mobius == invert_unitriangular(zeta_matrix(p))
            if n == 6:
                assert sum(map(bool, sum(mobius.rows, []))) == 903

    def test_bounded_non_lattice_is_refused(self):
        # the bounded bowtie: 1 and 2 lie below both 3 and 4, so 3 and 4
        # have no meet, yet their down-sets AND to a mask that holds the
        # minimum; that mask is not down[2], the down-set of its top bit
        lower = ((), (0,), (0,), (1, 2), (1, 2), (3, 4))
        down = []
        for j, covers in enumerate(lower):
            down.append(reduce(or_, (down[c] for c in covers), 1 << j))
        bowtie = SimpleNamespace(size=6, lower=lower, down=tuple(down))
        with pytest.raises(ValueError, match="element 5 have no meet"):
            mobius_matrix(bowtie)

    def test_zeta_times_mobius_is_identity(self, posets):
        for n in range(6):
            p = posets(n)
            z, m = zeta_matrix(p), mobius_matrix(p)
            assert z @ m == ExactMatrix.identity(p.size)
            assert m @ z == ExactMatrix.identity(p.size)


class TestChainCounts:
    def test_total_chains(self, posets):
        for n in range(6):
            assert total_chains(posets(n)) == TOTAL_CHAINS[n]

    def test_total_chain_matrix_is_geometric_series(self, posets):
        # (2*delta - zeta)^{-1} must equal sum of (zeta - delta)^k, and the
        # entry sum of the k-th power counts the k-edge chains, which the
        # chain polynomial holds at t^{k+1}
        for n in range(5):
            p = posets(n)
            zeta = zeta_matrix(p).rows
            strict = ExactMatrix([[a * (i != j) for j, a in enumerate(row)]
                                  for i, row in enumerate(zeta)])
            series = [[0] * p.size for _ in range(p.size)]
            k = 0
            power = ExactMatrix.identity(p.size)
            poly = chain_polynomial(p)
            while any(map(any, power.rows)):
                series = [[a + b for a, b in zip(row, power_row)]
                          for row, power_row in zip(series, power.rows)]
                assert _entry_sum(power) == poly.coeffs[k + 1]
                power = power @ strict
                k += 1
            assert k == poly.degree
            assert total_chain_matrix(p).rows == series

    def test_chain_polynomial_degree(self, posets):
        # a longest chain has C(n,2) edges, so C(n,2) + 1 elements
        for n in range(6):
            assert chain_polynomial(posets(n)).degree == comb(n, 2) + 1

    def test_total_chains_routes_must_agree(self, posets, monkeypatch,
                                            capsys):
        dp = incidence.chain_polynomial
        monkeypatch.setattr(incidence, "chain_polynomial",
                            lambda p: dp(p) + 1)
        with pytest.raises(AssertionError):
            total_chains(posets(3))
        assert main(["chains", "--n", "3"]) == EXIT_INTERNAL
        assert capsys.readouterr().out == ""

    def test_order_seven(self):
        # past every bundled snapshot; the two routes inside each count must
        # agree, and the maximal count also matches the hook-length formula
        census = chain_census(build_poset(7))
        assert census.total == 38_764_383_658_368
        assert census.maximal == 1_100_742_656
        assert staircase_maxchain(7) == 1_100_742_656

    def test_order_eight(self):
        # one order past the CLI's table entry; neither value is a snapshot
        census = chain_census(build_poset(8))
        assert census.total == 31_491_961_129_357_837_056
        assert census.maximal == 48_608_795_688_960
        assert staircase_maxchain(8) == 48_608_795_688_960

    def test_chain_polynomial_runs_once_per_call(self, monkeypatch, capsys):
        calls = []
        dp = incidence.chain_polynomial
        monkeypatch.setattr(incidence, "chain_polynomial",
                            lambda p: calls.append(p.n) or dp(p))
        assert main(["chains", "--n", "4"]) == EXIT_OK
        assert calls == [4]

    def test_chain_polynomials(self, posets):
        assert chain_polynomial(posets(3)) == CHAIN_POLY_3
        assert chain_polynomial(posets(4)) == CHAIN_POLY_4

    def test_packed_dp_matches_list_dp(self, posets):
        for n in range(8):
            p = posets(n)
            assert chain_polynomial(p) == list_chain_polynomial(p)

    def test_rank_level_bound_covers_every_chain(self, posets):
        # a chain meets each rank level at most once
        for n in range(9):
            p = posets(n)
            levels = Counter(mask.bit_count()
                             for mask in p.ideals).values()
            assert prod(size + 1 for size in levels) >= \
                chain_census(p).total

    def test_lower_covers_bound_the_dp_terms(self, posets):
        # the DP reads one prefix entry per cover edge, C(2n-1, n-2) of them
        # (5,005 at n = 8), at most n - 1 for an element; the crosscut
        # Mobius function makes 2^c - 1 meets for an element with c lower
        # covers, and the strict down-sets hold 377,806 terms at n = 8
        for n in range(1, 9):
            p = posets(n)
            lower = [len(covers) for covers in p.lower]
            assert max(lower) == n - 1
            if n >= 2:
                assert sum(lower) == comb(2 * n - 1, n - 2)
            if n == 8:
                assert sum(2 ** c - 1 for c in lower) == 19_363
                assert sum(mask.bit_count() - 1 for mask in p.down) == \
                    377_806

    def test_covers_come_in_extension_order(self, posets):
        # the DP's precondition: along each lower[j], the removed cells
        # ideals[j] ^ ideals[c] lie in strictly decreasing column
        for n in range(9):
            p = posets(n)
            column = {1 << poset._cell_bit(n, j, y): j
                      for y in range(1, n + 1) for j in range(1, y)}
            for ideal, covers in zip(p.ideals, p.lower):
                cols = [column[ideal ^ p.ideals[c]] for c in covers]
                assert all(a > b for a, b in zip(cols, cols[1:]))

    def test_covers_out_of_extension_order_must_fail(self, posets,
                                                     monkeypatch, capsys):
        # element 10 of D_4 with its two covers swapped: every read stays in
        # range but lands on the wrong prefix entry, and the k-fans catch it
        p = posets(4)
        assert p.lower[10] == (7, 8)
        swapped = p._replace(lower=p.lower[:10] + ((8, 7),) + p.lower[11:])
        with pytest.raises(AssertionError, match="by chain DP and by k-fans"):
            chain_census(swapped)
        monkeypatch.setattr(poset, "build_poset", lambda n: swapped)
        assert main(["chains", "--n", "4"]) == EXIT_INTERNAL
        assert capsys.readouterr().out == ""

    def test_cover_two_ranks_down_must_fail(self, posets, monkeypatch,
                                            capsys):
        # element 10 of D_4 (rank 4) also lists element 4 (rank 2) as a
        # cover, read first: rank 2's prefix lists were released when rank 4
        # began, and the read is refused by name, not as a TypeError
        p = posets(4)
        assert p.lower[10] == (7, 8)
        assert [p.ideals[j].bit_count() for j in (4, 10)] == [2, 4]
        skipped = p._replace(lower=p.lower[:10] + ((4, 7, 8),)
                             + p.lower[11:])
        with pytest.raises(ValueError, match="lower covers of element 10 "):
            chain_polynomial(skipped)
        monkeypatch.setattr(poset, "build_poset", lambda n: skipped)
        assert main(["chains", "--n", "4"]) == EXIT_INTERNAL
        assert capsys.readouterr().out == ""

    def test_prefix_lists_are_released_by_rank(self, posets):
        # the DP keeps the prefix lists of the rank below and of its own,
        # not all 1,430: a 275 KiB peak at n = 8, against 1,587 KiB when
        # every list lived until the DP returned
        p = posets(8)
        tracemalloc.start()
        try:
            chain_polynomial(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2**10

    def test_dp_runs_fewer_lines_than_down_set_terms(self, posets):
        # the DP's own work: every Python line chain_polynomial runs at
        # n = 8 (about 56,000, with a line per read and per prefix entry;
        # a comprehension and accumulate ran about 14,000, in more time),
        # against one line or more per term for a DP that walks each strict
        # down-set (about 1.9 million)
        p = posets(8)
        lines = 0

        def count(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return count

        outer = sys.gettrace()
        sys.settrace(count)
        try:
            chain_polynomial(p)
        finally:
            sys.settrace(outer)
        assert lines < 377_806

    def test_every_packed_coefficient_leaves_a_spare_bit(self, posets):
        # the width is the rank-level bound's pack_width, and _unpack
        # raises on a set spare bit: the chain DP unpacks for n <= 8 and on
        # random distributive lattices
        rng = random.Random(9)
        records = [posets(n) for n in range(9)] + [
            _random_lattice(rng.randrange(7), lambda: rng.random() < 0.5)
            for _ in range(50)]
        for p in records:
            # the empty chain and the one-element chains
            coeffs = chain_polynomial(p).coeffs
            assert (coeffs[0], coeffs[1]) == (1, len(p.lower))

    def test_a_narrowed_width_raises(self, posets, monkeypatch):
        # 28 bits sets a spare bit at n = 6, as does every width from 2;
        # pack_width gives 47
        monkeypatch.setattr(incidence, "pack_width", lambda bound: 28)
        with pytest.raises(ValueError, match="spare bit"):
            chain_polynomial(posets(6))

    def test_a_narrowed_width_exits_internal(self, capsys, monkeypatch):
        monkeypatch.setattr(incidence, "pack_width", lambda bound: 28)
        assert main(["chains", "--n", "6"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spare bit" in captured.err

    def test_fans_match_both_dps(self, posets):
        for n in range(9):
            fans = fan_chain_polynomial(n)
            if n <= 4:
                assert fans == list_chain_polynomial(posets(n))
            assert fans == chain_polynomial(posets(n))

    def test_fan_solve_inverts_the_multichain_counts(self):
        # M(k) = sum_j C(k-1, j-1) s_j, with M(k) the k-fan product, for
        # every k the solve reads, at every order the CLI accepts
        for n in range(9):
            s = fan_chain_polynomial(n).coeffs
            sums = [i + j for i in range(1, n) for j in range(i, n)]
            for k in range(1, comb(n, 2) + 2):
                fans = Fraction(prod(x + 2 * k for x in sums), prod(sums))
                assert fans == sum(comb(k - 1, j - 1) * c
                                   for j, c in s.items() if j), (n, k)

    def test_fans_read_no_poset_and_no_path(self):
        # no global name the k-fan route reads, in its body or in its
        # comprehensions, is defined in poset or paths
        codes = [fan_chain_polynomial.__code__]
        for code in codes:
            codes += [c for c in code.co_consts if hasattr(c, "co_names")]
            for name in code.co_names:
                owner = getattr(vars(incidence).get(name), "__module__", "")
                assert owner not in (poset.__name__, paths.__name__), name

    def test_chain_polynomial_order_zero(self, posets):
        assert chain_polynomial(posets(0)) == UniPoly.from_list([1, 1])

    def test_chain_polynomial_sums_by_direct_count(self, posets):
        # oracle: count strictly increasing index tuples directly
        for n in range(4):
            p = posets(n)
            poly = chain_polynomial(p)
            from itertools import combinations
            for size in range(p.size + 1):
                direct = sum(
                    1 for sub in combinations(range(p.size), size)
                    if all(p.leq(a, b) for a, b in zip(sub, sub[1:])))
                assert poly.coeffs.get(size, 0) == direct


class TestSolves:
    def test_total_chains_are_the_entry_sum_of_the_inverse(self, posets):
        # the paper's inversion: the entry sum of (2*delta - zeta)^{-1}
        # counts the nonempty chains, so with the empty one it is the value
        # at t = 1 of the k-fan chain polynomial
        for n in range(6):
            assert _entry_sum(total_chain_matrix(posets(n))) + 1 == \
                fan_chain_polynomial(n)(1)

    def test_maximal_solve_is_last_column_of_inverse(self, posets):
        for n in range(6):
            p = posets(n)
            inverse = invert_unitriangular(
                ExactMatrix(_delta_minus(1, eta_matrix(p))))
            x = maximal_chain_solve(p)
            assert x == [row[-1] for row in inverse.rows]
            assert x[0] == MAXIMAL[n]

    @pytest.mark.parametrize("solve", ["maximal_chain_solve"])
    def test_corrupted_solve_must_agree(self, posets, monkeypatch, capsys,
                                        solve):
        original = getattr(incidence, solve)
        monkeypatch.setattr(incidence, solve,
                            lambda p: [original(p)[0] + 1] + original(p)[1:])
        with pytest.raises(AssertionError):
            chain_census(posets(3))
        assert main(["chains", "--n", "3"]) == EXIT_INTERNAL
        assert capsys.readouterr().out == ""

    def test_dropped_relation_must_fail(self, posets, monkeypatch, capsys):
        # the k-fan route reads n alone, so a relation the chain DP reads,
        # taken out, must fail the census: the cover 0 < 1 of D_3 leaves
        # the atom 1 no lower cover and a prefix list of one entry, which
        # the read for element 3 runs off.  The minimum taken out of the
        # atom 1's down-set leaves the atoms 1 and 2 an empty meet; the
        # chain DP reads no down-set, but the Mobius function refuses it
        p = posets(3)
        assert p.lower[1] == (0,) and p.lower[3] == (1, 2)
        dropped_cover = p._replace(lower=p.lower[:1] + ((),) + p.lower[2:])
        with pytest.raises(ValueError, match="element 3 "):
            chain_census(dropped_cover)
        monkeypatch.setattr(poset, "build_poset", lambda n: dropped_cover)
        assert main(["chains", "--n", "3"]) == EXIT_INTERNAL
        assert capsys.readouterr().out == ""
        dropped_minimum = p._replace(
            down=p.down[:1] + (p.down[1] & ~1,) + p.down[2:])
        with pytest.raises(ValueError, match="not a lattice"):
            mobius_matrix(dropped_minimum)

    def test_dense_matrices_off_the_cli_path(self, monkeypatch, capsys):
        def dense(*args, **kwargs):
            raise RuntimeError("dense matrix on the CLI path")

        monkeypatch.setattr(ExactMatrix, "__init__", dense)
        monkeypatch.setattr(ExactMatrix, "__matmul__", dense)
        argvs = ([["chains", "--n", str(n)] for n in range(9)]
                 + [["poset", "--n", str(n)] for n in range(6)]
                 + [["verify", "--sequence", s]
                    for s in ("A005700", "A143672", "A005118")])
        for argv in argvs:
            assert main(argv) == EXIT_OK, argv
        capsys.readouterr()


class TestMaximalChains:
    def test_two_routes_and_hook_formula(self, posets):
        for n in range(6):
            via_matrix = maximal_chain_count(posets(n))
            assert via_matrix == MAXIMAL[n]
            if n >= 1:
                assert staircase_maxchain(n) == via_matrix

    def test_eta_entries_are_covers(self, posets):
        p = posets(4)
        eta = eta_matrix(p)
        assert _entry_sum(eta) == len(p.cover_edges())


class TestIntervalCounts:
    def test_values(self, posets):
        for n in range(9):
            assert interval_count(posets(n)) == INTERVALS[n]

    def test_routes_must_agree(self, posets, monkeypatch, capsys):
        # the top of D_3 put into the down-set of its one lower cover 3: the
        # other checks of the poset command read down[3] only where the top
        # is not in play (the ideal split below 3, the strict down-sets of a
        # matching that the top's own down-set saturates), so the interval
        # count alone must catch it
        p = posets(3)
        corrupted = p._replace(down=p.down[:3] + (p.down[3] | 1 << 4,)
                               + p.down[4:])
        with pytest.raises(AssertionError):
            interval_count(corrupted)
        monkeypatch.setattr(poset, "build_poset", lambda n: corrupted)
        assert main(["poset", "--n", "3"]) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == ""
        assert "interval counts by down-sets and by closed form" in err

    def test_equals_pairwise_comparison(self, posets):
        for n in range(5):
            p = posets(n)
            direct = sum(1 for i in range(p.size) for j in range(p.size)
                         if p.leq(i, j))
            assert interval_count(p) == direct


def _random_lattice(size, related):
    """J(P) of a random P on size points, grown by oracles.ideal_lattice:
    P's labels are a linear extension, each pair related when related()
    says so and closed transitively, and each lower list of J(P) is sorted
    by its removed point, as chain_polynomial requires."""
    points = [1 << x for x in range(size)]
    for x in range(size):
        for y in range(x):
            if related():
                points[x] |= points[y]
    lattice = ideal_lattice(points)
    lattice.lower = tuple(
        tuple(sorted(covers, key=lambda c: ideal ^ lattice.ideals[c]))
        for ideal, covers in zip(lattice.ideals, lattice.lower))
    return lattice


def _saturated_chains_to_top(p):
    """For each element i, the saturated chains from i to the maximum,
    listed by walking the covers upward."""
    upper = [[] for _ in range(p.size)]
    for j, lower in enumerate(p.lower):
        for i in lower:
            upper[i].append(j)
    listed = [[] for _ in range(p.size)]

    def walk(start, chain):
        if not upper[chain[-1]]:
            listed[start].append(chain)
        for j in upper[chain[-1]]:
            walk(start, chain + (j,))

    for i in range(p.size):
        walk(i, (i,))
    return listed


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_mobius_on_random_distributive_lattices(data):
    # the crosscut columns on J(P) of a random P on at most 6 points,
    # against the inverse of the zeta matrix read off the down-sets
    lattice = _random_lattice(data.draw(st.integers(0, 6)),
                              lambda: data.draw(st.booleans()))
    zeta = ExactMatrix([[lattice.down[j] >> i & 1 for j in range(lattice.size)]
                        for i in range(lattice.size)])
    assert mobius_matrix(lattice) == invert_unitriangular(zeta)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_maximal_chain_solve_on_random_distributive_lattices(data):
    # the back substitution on J(P) of a random P on at most 6 points,
    # against the saturated chains from each element to the top, listed;
    # a chain from the bottom is a linear extension of P
    lattice = _random_lattice(data.draw(st.integers(0, 6)),
                              lambda: data.draw(st.booleans()))
    listed = _saturated_chains_to_top(lattice)
    top = lattice.size - 1
    assert all(chain[-1] == top for chains in listed for chain in chains)
    assert maximal_chain_solve(lattice) == list(map(len, listed))


def _bounded_up_sets(data):
    """The up-sets of a random bounded poset: between a bottom 0 and a top,
    2 to 4 levels of 2 or 3 points, listed level by level, each point
    related or not, as drawn, to each point of a higher level, and the
    relation closed transitively.  Most such posets are not lattices."""
    level = [-1]
    for k in range(data.draw(st.integers(2, 4))):
        level += [k] * data.draw(st.integers(2, 3))
    level.append(len(level))
    size = len(level)
    up = [1 << i | 1 << size - 1 for i in range(size)]
    for i in reversed(range(1, size - 1)):
        for j in range(i + 1, size - 1):
            if level[j] > level[i] and data.draw(st.booleans()):
                up[i] |= up[j]
    up[0] = (1 << size) - 1
    return up


def _has_every_meet(down):
    # each pair's common lower bounds hold one that lies above them all
    for x in range(len(down)):
        for y in range(x):
            common = down[x] & down[y]
            if not any(common & ~down[m] == 0
                       for m in range(len(down)) if common >> m & 1):
                return False
    return True


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_bounded_non_lattices_are_refused(data):
    # a bounded poset with a pair that has no meet, found by testing every
    # common lower bound, is no lattice: the crosscut columns must refuse
    # it, whatever pair it is
    p = poset_record(_bounded_up_sets(data))
    assume(not _has_every_meet(p.down))
    with pytest.raises(ValueError, match="not a lattice"):
        mobius_matrix(p)
