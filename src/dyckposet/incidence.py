"""Exact integer matrix realization of the incidence algebra of D_n.

Rows and columns are indexed by the canonical element order, a linear
extension of D_n, under which zeta, delta, eta and (2*delta - zeta) are
upper triangular.  D_n is a lattice, so its Mobius function is read off
p.lower, the lower covers, by Rota's crosscut theorem, inverting no matrix.
The chain polynomial is the fast zeta transform over D_n = J(P_n) of
Bjorklund, Husfeldt, Kaski, Koivisto, Nederlof and Parviainen (SODA 2012):
one pass over the order and one read per cover edge, each element's chain
counts by length packed in one integer (138 bits apiece at n = 8, one
of them spare).

chain_census checks every coefficient of that polynomial against a k-fan
product formula that reads no poset, and its top one also against the
paper's inversion of (delta - eta), one triangular solve down p.lower,
and the hook-length formula.  The dense zeta and Mobius matrices remain as
library functions; inversion by back substitution, which gives the dense
(2*delta - zeta)^{-1} and (delta - eta)^{-1}, is an oracle in the tests.
"""

from __future__ import annotations

from collections import Counter
from math import comb, prod
from typing import NamedTuple

from . import tableaux
from .checks import agree
from .paths import catalan_closed
from .polynomials import UniPoly, _unpack, pack_width
from .poset import DyckPoset


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


def zeta_matrix(p: DyckPoset) -> ExactMatrix:
    return ExactMatrix([[1 if p.leq(i, j) else 0 for j in range(p.size)]
                        for i in range(p.size)])


def _mobius_columns(p: DyckPoset):
    """Column j of mu, for each element j in order, as lists (odd, even):
    off the diagonal, mu(x, j) is the count of x in even less that in odd.

    By Rota's crosscut theorem (Z. Wahrscheinlichkeitstheorie 2, 1964),
    mu(x, j) for x < j sums (-1)^{|T|} over the nonempty sets T of lower
    covers of j that meet in x; odd and even list the meets of the odd and
    the even T.  The common lower bounds of T and a cover c are the AND of
    their down-set masks, and their meet is its top bit m only if that AND
    is down[m]; otherwise the meet does not exist, p is not a lattice, and
    ValueError is raised."""
    down = p.down
    for j, covers in enumerate(p.lower):
        # each cover c appends the meet with c of every set so far, of the
        # other parity, then c: the list alternates odd, even, ..., odd
        meets: list[int] = []
        for c in covers:
            below_c = down[c]
            common = [down[x] & below_c for x in meets]
            tops = [mask.bit_length() - 1 for mask in common]
            # an empty AND has top -1, and down[-1] is never empty
            if any(down[m] != mask for m, mask in zip(tops, common)):
                raise ValueError(f"lower covers of element {j} have no "
                                 "meet: not a lattice")
            meets += tops
            meets.append(c)
        yield meets[::2], meets[1::2]


def mobius_matrix(p: DyckPoset) -> ExactMatrix:
    rows = ExactMatrix.identity(p.size).rows
    for j, (odd, even) in enumerate(_mobius_columns(p)):
        for x in odd:
            rows[x][j] -= 1
        for x in even:
            rows[x][j] += 1
    return ExactMatrix(rows)


def chain_polynomial(p: DyckPoset) -> UniPoly:
    """1 + sum_k c_k t^{k+1} with c_k the number of k-edge chains.

    end(j) = sum_k e_k 2^{Bk}, e_k the number of k-edge chains whose top is
    j, packs B bits per coefficient, and total[j] sums end over the down-set
    of j.  end(j) is 1 + (below << B), below the sum of end over the strict
    down-set of j: each chain one edge longer.

    below is read off the lower covers by the fast zeta transform over
    J(P_n) (Bjorklund et al., SODA 2012).  Number the points of P_n in a
    linear extension, and write G(I, k) for the sum of end over the ideals
    I' within I that hold the same points numbered k or more as I: G(I, 0)
    is end(I) and G(I, |P_n|) is total(I).  Freeing point k adds
    G(I - k, k) if k is maximal in I, and nothing otherwise: if k is in I
    but not maximal, a point above k, numbered later, is held and forces k
    in.  So G(I, .) steps only at the maximal points m_1 < ... < m_r of I,
    and pref[I] lists its values, end(I) + t_1 + ... + t_i for i = 0..r,
    with t_i = G(I - m_i, m_i).  The maximal points of I - m_i after m_i
    are m_{i+1}, ..., m_r, since the points it gains lie below m_i, so t_i
    is pref[I - m_i][i - r - 1]: one read per cover edge, C(2n-1, n-2) in
    all (5,005 at n = 8).  below is t_1 + ... + t_r, and pref[I][-1] is
    total(I).

    The reads need lower[j] to list the covers I - m_i in the order of
    their removed points m_i.  build_poset walks the rows from the top
    down and takes out the last cell of each peak row; the north offsets
    of the peaks fall strictly, so along lower[j] the removed cells fall
    in strictly decreasing column.  Column descending, then row
    ascending, is a linear extension of P_n, where (j', y') lies below
    (j, y) iff j' >= j and y' <= y.  A cover list that sends a read off
    the end of a prefix list, or to an element not yet reached, is
    refused with ValueError; covers listed in another order give wrong
    counts, for the k-fan check of chain_census to refuse.

    A cover joins adjacent ranks, so only the elements of the rank just
    above read a prefix list.  The elements must be listed by rank, as
    build_poset lists them: when rank r + 2 begins, rank r's lists are
    released, which keeps at most two ranks of them alive instead of all
    C_n (a 275 KiB tracemalloc peak at n = 8, against 1.6 MiB when every
    list was kept).  A read of a released list, from a "cover" two or more
    ranks down, is refused with the same ValueError: a release can refuse
    a cover list, never change a count.

    A chain meets each rank level at most once, so there are at most as
    many chains, the empty one included, as the product of
    (level size + 1), the bound of B.
    """
    ranks = list(map(int.bit_count, p.ideals))
    width = pack_width(prod(size + 1 for size in Counter(ranks).values()))
    chains = 0
    pref: list[list[int] | None] = []
    done = start = 0  # the first elements of the rank below and of this one
    try:
        for j, covers in enumerate(p.lower):
            if ranks[j] != ranks[start]:
                # rank r + 2 begins: no later element reads rank r
                pref[done:start] = [None] * (start - done)
                done, start = start, j
            # the k-th of the r covers is read at k - r - 1: i counts from -r
            i = -len(covers)
            below = 0
            steps = []
            for c in covers:
                t = pref[c][i]
                i += 1
                below += t
                steps.append(t)
            end = 1 + (below << width)
            chains += end
            run = [end]
            for t in steps:
                end += t
                run.append(end)
            pref.append(run)
    except (IndexError, TypeError):  # off a list, or into a released one
        j = len(pref)  # the element whose read failed
        raise ValueError(f"lower covers of element {j} are not the covers "
                         "of an ideal lattice in extension order") from None
    totals = _unpack(chains, width)
    return UniPoly.one() + UniPoly({k + 1: c for k, c in enumerate(totals)})


def fan_chain_polynomial(n: int) -> UniPoly:
    """The chain polynomial of D_n from k-fans of Dyck paths: no poset.

    A multichain x_1 <= ... <= x_k of D_n is a k-fan of nested Dyck paths,
    and there are M(k) = prod_{1 <= i <= j <= n-1} (i + j + 2k)/(i + j) of
    them (Desainte-Catherine and Viennot, LNM 1234, 1986).  One with j
    distinct elements comes from a j-element chain in C(k-1, j-1) ways, so
    M(k) = sum_j C(k-1, j-1) s_j (Stanley, EC1 3.12), a triangle that
    Newton's forward differences solve: s_{j+1} = (Delta^j M)(1); s_0 = 1.
    """
    sums = [i + j for i in range(1, n) for j in range(i, n)]
    denom = prod(sums)
    quotients = [divmod(prod(s + 2 * k for s in sums), denom)
                 for k in range(1, comb(n, 2) + 2)]
    if any(rem != 0 for _, rem in quotients):
        raise ArithmeticError("k-fan product does not divide")
    fans = [count for count, _ in quotients]
    # round j turns fans[j:] from the (j-1)-th differences into the j-th,
    # from the right, so fans[j] ends as (Delta^j M)(1) = s_{j+1}
    for j in range(1, len(fans)):
        for i in range(len(fans) - 1, j - 1, -1):
            fans[i] -= fans[i - 1]
    return UniPoly.from_list([1] + fans)


def maximal_chain_solve(p: DyckPoset) -> list[int]:
    """x with (delta - eta) x = e_top: the last column of (delta - eta)^{-1},
    whose entry x_i counts the saturated chains from i to the maximum.

    Back substitution, x_i = [i = top] + sum of x_k over the k covering i,
    from the top down: x_j is final when it is added to its lower covers'.
    """
    x = [0] * (p.size - 1) + [1]
    for j in reversed(range(p.size)):
        for c in p.lower[j]:
            x[c] += x[j]
    return x


class ChainCensus(NamedTuple):
    polynomial: UniPoly  # 1 + sum_k c_k t^{k+1}, c_k the k-edge chains
    total: int           # all chains, the empty chain included
    maximal: int


def chain_census(p: DyckPoset) -> ChainCensus:
    """The chain polynomial and the total and maximal chain counts.

    The chain DP runs once, and every coefficient must equal the k-fan
    route's.  The top one must also equal the (min, max) entry of
    (delta - eta)^{-1} and the hook-length count of staircase tableaux.  A
    disagreement raises AssertionError.  The total is the value at t = 1,
    but 1 at n = 0, where the published count table gives the one-element
    poset a single chain; we mirror that so the bundled-sequence
    verification is meaningful.
    """
    polynomial = agree("chain polynomials by chain DP and by k-fans",
                       chain_polynomial(p), fan_chain_polynomial(p.n))
    # read through the module, so that a test can replace the formula
    maximal = agree(
        "maximal chain counts by solve, by chain DP and by hook lengths",
        maximal_chain_solve(p)[0],
        polynomial.coeffs.get(comb(p.n, 2) + 1, 0),
        tableaux.staircase_maxchain(p.n))
    total = sum(polynomial.coeffs.values()) if p.n else 1  # value at t = 1
    return ChainCensus(polynomial, total, maximal)


def total_chains(p: DyckPoset) -> int:
    """All chains in the poset, the empty chain included; see chain_census."""
    return chain_census(p).total


def maximal_chain_count(p: DyckPoset) -> int:
    """Maximal chains of the poset; see chain_census."""
    return chain_census(p).maximal


def interval_count(p: DyckPoset) -> int:
    """Number of pairs x <= y: the dimension of the incidence algebra.

    Counted from the down-sets, and checked against C_n C_{n+2} - C_{n+1}^2,
    the closed form OEIS A005700 gives for it.
    """
    return agree("interval counts by down-sets and by closed form",
                 sum(mask.bit_count() for mask in p.down),
                 catalan_closed(p.n) * catalan_closed(p.n + 2)
                 - catalan_closed(p.n + 1) ** 2)
