from collections import Counter
from math import comb, prod

import pytest

from dyckposet import (ExactMatrix, build_poset, chain_census,
                       chain_polynomial, incidence, interval_count,
                       invert_unitriangular, maximal_chain_count,
                       maximal_chain_solve, mobius_matrix, poset,
                       staircase_maxchain, total_chain_solve, total_chains,
                       zeta_matrix)
from dyckposet.cli import EXIT_INTERNAL, EXIT_OK, main
from dyckposet.polynomials import UniPoly
from oracles import covers

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


def _list_chain_polynomial(p):
    # oracle: the same DP over the linear extension, with each element's
    # chain counts a list indexed by edge count
    ends = []
    totals = [0] * (comb(p.n, 2) + 1)
    for j in range(p.size):
        below = [0] * p.ideals[j].bit_count()
        for i in poset._bits(p.down[j] & ~(1 << j)):
            for k, c in enumerate(ends[i]):
                below[k] += c
        row = [1] + below
        ends.append(row)
        for k, c in enumerate(row):
            totals[k] += c
    return UniPoly.one() + UniPoly({k + 1: c for k, c in enumerate(totals)})


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
            assert chain_polynomial(p) == _list_chain_polynomial(p)

    def test_rank_level_bound_covers_every_chain(self, posets):
        # a chain meets each rank level at most once
        for n in range(9):
            p = posets(n)
            levels = Counter(mask.bit_count()
                             for mask in p.ideals).values()
            assert prod(size + 1 for size in levels) >= \
                chain_census(p).total

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
    def test_total_solve_is_row_sums_of_inverse(self, posets):
        # x solves (2*delta - zeta) x = 1, so it holds the row sums of
        # (2*delta - zeta)^{-1}, and its sum is that matrix's entry sum
        for n in range(6):
            p = posets(n)
            inverse = total_chain_matrix(p)
            x = total_chain_solve(p)
            assert x == [sum(row) for row in inverse.rows]
            assert sum(x) == _entry_sum(inverse)

    def test_maximal_solve_is_last_column_of_inverse(self, posets):
        for n in range(6):
            p = posets(n)
            inverse = invert_unitriangular(
                ExactMatrix(_delta_minus(1, eta_matrix(p))))
            x = maximal_chain_solve(p)
            assert x == [row[-1] for row in inverse.rows]
            assert x[0] == MAXIMAL[n]

    @pytest.mark.parametrize("solve", ["total_chain_solve",
                                       "maximal_chain_solve"])
    def test_corrupted_solve_must_agree(self, posets, monkeypatch, capsys,
                                        solve):
        original = getattr(incidence, solve)
        monkeypatch.setattr(incidence, solve,
                            lambda p: [original(p)[0] + 1] + original(p)[1:])
        with pytest.raises(AssertionError):
            chain_census(posets(3))
        assert main(["chains", "--n", "3"]) == EXIT_INTERNAL
        assert capsys.readouterr().out == ""

    def test_total_solve_reads_the_ideals(self, posets, monkeypatch, capsys):
        # the solve reads the order from the area-cell masks alone, never
        # from the up- and down-sets the chain DP walks
        p = posets(3)
        no_closure = p._replace(up=(0,) * p.size, down=(0,) * p.size)
        assert total_chain_solve(no_closure) == total_chain_solve(p)
        # an empty ideal for the maximum puts it above the minimum alone
        corrupted = p._replace(ideals=p.ideals[:-1] + (0,))
        assert total_chain_solve(corrupted) != total_chain_solve(p)
        with pytest.raises(AssertionError):
            chain_census(corrupted)
        monkeypatch.setattr(poset, "build_poset", lambda n: corrupted)
        assert main(["chains", "--n", "3"]) == EXIT_INTERNAL
        assert capsys.readouterr().out == ""

    def test_dense_matrices_off_the_cli_path(self, monkeypatch, capsys):
        def dense(*args, **kwargs):
            raise RuntimeError("dense matrix on the CLI path")

        monkeypatch.setattr(ExactMatrix, "__init__", dense)
        monkeypatch.setattr(ExactMatrix, "__matmul__", dense)
        monkeypatch.setattr(incidence, "invert_unitriangular", dense)
        argvs = ([["chains", "--n", str(n)] for n in range(8)]
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
        p = posets(3)
        corrupted = p._replace(up=p.up[:-1] + (0,))
        with pytest.raises(AssertionError):
            interval_count(corrupted)
        monkeypatch.setattr(poset, "build_poset", lambda n: corrupted)
        assert main(["poset", "--n", "3"]) == EXIT_INTERNAL
        assert capsys.readouterr().out == ""

    def test_equals_pairwise_comparison(self, posets):
        for n in range(5):
            p = posets(n)
            direct = sum(1 for i in range(p.size) for j in range(p.size)
                         if p.leq(i, j))
            assert interval_count(p) == direct
