"""Classical q-analogs, the q,t-Catalan polynomial, and exact rational-point
validation of the Garsia-Haiman partition sum.

C_n(q, t) = sum q^area t^bounce over the Dyck paths of order n has three
routes: the path sum (qt_catalan); the Garsia-Haglund bounce recurrence
(_bounce_recurrence), which enumerates no path; and the Garsia-Haiman
partition sum (gh_evaluate), which does not use bounce and is compared at
exact rational points.  The path sum builds no Dyck path: it sweeps the
half paths of paths._halves once and counts each join in a flat (area,
bounce) histogram, at a slot read with one addition from values worked out
once per half: its north offset sum and its part of the bounce walk.  Each
term of the partition sum is built in one pass over the partition's cells.
The area analog is C_n(q, 1) and the maj analog q^C(n,2) C_n(q, 1/q)
(Garsia and Haiman, J. Algebraic Combin. 5, 1996); each is read off the
path sum and checked by a route that does not use it.

The recurrences carry each polynomial P as the one int P(2^B), B bits per
coefficient (Kronecker substitution, as in poset._antichain_sizes): a
product or sum of polynomials is one big-int product or sum.  Each proves
the bound on its coefficients from which polynomials.pack_width sets B,
and each route is unpacked once (polynomials._unpack, which checks the
spare bit) into the BiPoly that its check compares.  qt_census
runs every check of the qt command on one C_n(q, t): the area analog
against the area recurrence, which the inv reversal reads once it is
checked, and the maj analog by MacMahon's identity
maj(q) [n+1]_q = [2n choose n]_q, checked on packed ints.  One q-Pascal
table (_q_pascal) serves the bounce recurrence and the maj identity.
cn_area and cn_maj read their one specialization and run its check alone,
through the helpers qt_census calls (_checked_area, _checked_maj).  The
tests keep the recurrences on BiPoly, and the factorial quotient
[n]! / ([k]! [n-k]!), as oracles for the packed routes, and the step words
listed by itertools as the oracle for the joins.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple

from .checks import agree
from .config import check_order
# enumerate_paths and path_stats are no longer called here, but stay bound
# as qt.enumerate_paths and qt.path_stats: bench/tests/test_harness.py checks
# that the tracer rebinds them by name, and tests/test_boundary.py that the
# bindings stay
from .paths import (CellStats, Partition, _halves, catalan_closed,
                    cell_stats, enumerate_paths, path_stats)  # noqa: F401
from .polynomials import BiPoly, _unpack, pack_width, power_table

GH_POINT_SEED = 20080108  # fixed seed for reproducible evaluation points
# The point at which the qt command checks C_n(q, t) against the partition
# sum.  2/3 and -5/7 are built from distinct primes, so q0^i = t0^j only for
# i = j = 0: no denominator factor q^a - t^(l+1) or t^l - q^(a+1) vanishes
# at any order.  Neither is 0 or +-1, where the check would test little.
GH_CHECK_POINT = (Fraction(2, 3), Fraction(-5, 7))


def _partitions(n: int) -> list[Partition]:
    results: list[Partition] = []

    def build(remaining: int, cap: int, parts: list[int]) -> None:
        if remaining == 0:
            results.append(Partition(tuple(parts)))
            return
        for part in range(min(cap, remaining), 0, -1):
            parts.append(part)
            build(remaining - part, part, parts)
            parts.pop()

    build(n, n, [])
    return results


def _q_poly(coeffs: tuple[int, ...]) -> BiPoly:
    """The polynomial in q alone with these coefficients, lowest first."""
    return BiPoly({(e, 0): c for e, c in enumerate(coeffs)})


def _carlitz(n: int, shift: Callable[[int, int], int]) -> BiPoly:
    """C_n(q) by the Carlitz-Riordan recurrence C_0 = 1,
    C_{m+1}(q) = sum_k q^{shift(k, m)} C_k(q) C_{m-k}(q): the shift k gives
    the area analog, (k + 1)(m - k) the inv analog.

    C_m is carried as C_m(2^B).  A coefficient of C_k C_{m-k} counts pairs
    of paths, and one of C_{m+1} paths, so each is at most C_n, the bound
    of B."""
    width = pack_width(catalan_closed(n))
    packed = [1]
    for m in range(n):
        packed.append(sum((packed[k] * packed[m - k]) << width * shift(k, m)
                          for k in range(m + 1)))
    return _q_poly(_unpack(packed[n], width))


def _inv_analog(n: int, area: BiPoly) -> BiPoly:
    """The inv recurrence, checked against `area` reversed about C(n,2)."""
    top = comb(n, 2)
    return agree("inv q-analog recurrence and reversed area recurrence",
                 _carlitz(n, lambda k, m: (k + 1) * (m - k)),
                 BiPoly({(top - qe, 0): c for (qe, _te), c
                         in area.coeffs.items()}))


class QtCensus(NamedTuple):
    poly: BiPoly  # C_n(q, t) = sum q^area t^bounce
    area: BiPoly  # sum q^area
    inv: BiPoly   # sum q^inv
    maj: BiPoly   # sum q^maj
    count: int    # C_n(1, 1), the Catalan number


def qt_census(n: int) -> QtCensus:
    """From one path sum: C_n(q, t) must equal the bounce recurrence, its
    value at (1, 1) C_n and its value at GH_CHECK_POINT the partition sum;
    its area analog C_n(q, 1) must equal the area recurrence, the inv
    analog that recurrence reversed, and its maj analog
    q^C(n,2) C_n(q, 1/q) times [n+1]_q [2n choose n]_q.  A disagreement
    raises AssertionError."""
    poly = qt_catalan(n)
    # one q-Pascal table serves the bounce recurrence and the maj identity
    width, pascal = _q_pascal(2 * n)
    agree("q,t-Catalan path sum and the bounce recurrence",
          poly, _bounce_recurrence(n, width, pascal))
    # the value at (1, 1) is the coefficient sum
    count = agree("q,t-Catalan value at (1, 1) and the Catalan number",
                  sum(poly.coeffs.values()), catalan_closed(n))
    # the partition sum is the one route that does not use bounce
    q0, t0 = GH_CHECK_POINT
    agree("q,t-Catalan path sum and the partition sum at GH_CHECK_POINT",
          poly.evaluate_exact(q0, t0), gh_evaluate(n, q0, t0))
    # the inv recurrence is checked against the area analog reversed, once
    # the analog has passed its own check
    area = _checked_area(n, poly.substitute_t_one())
    inv = _inv_analog(n, area)
    maj = _checked_maj(n, poly.t_to_inverse_q(comb(n, 2)), width, pascal)
    return QtCensus(poly=poly, area=area, inv=inv, maj=maj, count=count)


def _checked_area(n: int, area: BiPoly) -> BiPoly:
    """area, the area analog of order n, once it equals the area
    recurrence."""
    return agree("area q-analog path sum and recurrence",
                 area, _carlitz(n, lambda k, m: k))


def _checked_maj(n: int, maj: BiPoly, width: int,
                 pascal: list[list[int]]) -> BiPoly:
    """maj, the maj analog of order n, once maj(q) [n+1]_q =
    [2n choose n]_q; width and pascal are those of _q_pascal(2n).

    The identity is checked at q = 2^B, where [n+1]_q is
    (2^(B(n+1)) - 1) / (2^B - 1).  maj's coefficients are non-negative
    counts of joins that sum to C_n, so each is below 2^B and maj(2^B)
    packs them B bits apiece.  A coefficient of maj [n+1]_q is at most that
    sum, C_n, and one of [2n choose n]_q at most C(2n, n), the bound of B:
    both sides are below 2^B in every coefficient, so equal ints mean equal
    polynomials.  They are compared unpacked, which is the same test and
    shows coefficients when it fails."""
    q_int = ((1 << width * (n + 1)) - 1) // ((1 << width) - 1)
    agree("maj q-analog C_n(q, 1/q) and quotient",
          _unpack(maj(1 << width, 1) * q_int, width),
          _unpack(pascal[2 * n][n], width))
    return maj


def cn_area(n: int) -> BiPoly:
    """Sum of q^{area(D)}, C_n(q, 1), checked against the area
    recurrence."""
    return _checked_area(n, qt_specialize(n, "area"))


def cn_inv(n: int) -> BiPoly:
    """Sum of q^{inv(D)} by the inversion recurrence, checked against the
    area recurrence reversed about C(n,2); no path is enumerated."""
    return _inv_analog(n, _carlitz(n, lambda k, m: k))


def cn_maj(n: int) -> BiPoly:
    """Sum of q^{maj(D)}, q^C(n,2) C_n(q, 1/q), checked by
    maj(q) [n+1]_q = [2n choose n]_q."""
    return _checked_maj(n, qt_specialize(n, "maj"), *_q_pascal(2 * n))


def qt_catalan(n: int) -> BiPoly:
    """Sum of q^{area(D)} t^{bounce(D)} over all paths of order n, counted
    off the joins of the half paths of _halves(n) without building a path.

    A first half ending at level a joins a second half starting at
    (n - a, a).  The area is C(n, 2) less the sum of their north offsets.
    The bounce walk of path_stats, k -> e[k-1] from k = n, reads the second
    half's north offsets while k > a, summing them to s, and ends in the
    first half, whose prefix table f[k] = e[k-1] + f[e[k-1]] sums the rest.

    The joins are counted in one flat histogram of S^2 slots, S = C(n,2) + 1,
    q^area t^bounce at slot area + S bounce.  That is exact because
    0 <= area, bounce <= C(n,2): each pair has a slot of its own.  A
    second half carries S s less its offset sum, and a first half the table
    g[k] = C(n,2) - (its offset sum) + S f[k], so a join's slot is one
    addition of the two.
    """
    firsts, seconds = _halves(n)
    slots = comb(n, 2) + 1
    tails = {}
    for a, level in seconds.items():
        rows = []
        for offsets in level:
            k = n
            s = 0
            while k > a:
                k = offsets[k - 1 - a]
                s += k
            rows.append((slots * s - sum(offsets), k))
        tails[a] = rows
    hist = [0] * (slots * slots)
    for offsets in firsts:
        g = [slots - 1 - sum(offsets)]
        for e in offsets:
            g.append(g[e] + slots * e)
        for base, k in tails[len(offsets)]:
            hist[base + g[k]] += 1
    return BiPoly({(i % slots, i // slots): c
                   for i, c in enumerate(hist) if c})


def _q_pascal(top: int) -> tuple[int, list[list[int]]]:
    """The width B and rows 0..top of the q-binomials at q = 2^B: row m
    lists [m choose k]_q(2^B) for k = 0..m, by the q-Pascal rule
    [m choose k]_q = [m-1 choose k-1]_q + q^k [m-1 choose k]_q.

    The coefficients of [m choose k]_q sum to C(m, k), at most
    C(top, top // 2), the bound of B."""
    width = pack_width(comb(top, top // 2))
    rows = [[1]]
    for m in range(1, top + 1):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + (prev[k] << width * k)
                           for k in range(1, m)] + [1])
    return width, rows


def _bounce_recurrence(n: int, width: int,
                       pascal: list[list[int]]) -> BiPoly:
    """C_n(q, t) by the Garsia-Haglund recurrence, enumerating no path:
    F_{m,m} = q^C(m,2) and, for 1 <= k < m,
    F_{m,k} = t^(m-k) q^C(k,2) sum_{r=1}^{m-k} [r+k-1 choose r]_q F_{m-k,r},
    with C_n = sum_k F_{n,k}.  F_{m,k} sums over the paths of order m that
    end in exactly k east steps, the first leg of their bounce path from
    (m, m); width and pascal are those of _q_pascal(2n).

    F_{m,k} is carried as one int: q^i t^j at digit i + j S, width bits per
    digit, with S = C(n,2) + 1 q slots per t power.  Its terms have
    i + j <= C(m,2) < S, so no q power spills into the next t power, and
    every coefficient, of F and of each product and sum that builds it,
    counts paths of order at most n: at most C_n < C(2n, n), the bound of
    width."""
    stride = width * (comb(n, 2) + 1)
    f = [[1]]  # f[m][k] is F_{m,k} packed; C_0 = 1
    for m in range(1, n + 1):
        row = [0] * m + [1 << width * comb(m, 2)]
        for k in range(1, m):
            total = sum(pascal[r + k - 1][r] * f[m - k][r]
                        for r in range(1, m - k + 1))
            row[k] = total << width * comb(k, 2) + stride * (m - k)
        f.append(row)
    # unpacked one t power at a time, then each power's q coefficients
    return BiPoly({(qe, te): c
                   for te, row in enumerate(_unpack(sum(f[n]), stride))
                   for qe, c in enumerate(_unpack(row, width))})


def qt_specialize(n: int, mode: str):
    """Specializations of the q,t-Catalan polynomial: t -> 1 gives the area
    analog, q^{C(n,2)} P(q, 1/q) gives the maj analog, (1,1) the count."""
    if mode not in ("area", "maj", "count"):
        raise ValueError(f"unknown specialization mode {mode!r}")
    poly = qt_catalan(n)
    if mode == "area":
        return poly.substitute_t_one()
    if mode == "maj":
        return poly.t_to_inverse_q(comb(n, 2))
    return sum(poly.coeffs.values())


def symmetry_check(n: int) -> bool:
    poly = qt_catalan(n)
    return poly.swap_variables() == poly


# ---------------------------------------------------------------------------
# the Garsia-Haiman partition sum


class PoleError(ArithmeticError):
    """A denominator factor of the partition sum vanishes at this point."""


@functools.cache
def _partition_hooks(n: int) -> tuple[tuple[CellStats, ...], ...]:
    """The (arm, leg, coarm, coleg) of every cell of each partition of n, in
    row-major order; they depend on n alone, so they are built once per
    order."""
    return tuple(tuple(cell_stats(mu).values()) for mu in _partitions(n))


def _gh_cells(n: int, q0: Fraction, t0: Fraction):
    """Power tables of qn, qd, tn, td (q0 = qn/qd, t0 = tn/td) up to n^2,
    which bounds every exponent _gh_term reads, and for each partition of n
    its cell hooks and den: the product over cells of
    (q^a - t^(l+1))(t^l - q^(a+1)) with qd and td cleared, in integers.
    den is zero iff one of its factors vanishes at (q0, t0)."""
    check_order(n)
    powers = qn, qd, tn, td = tuple(
        power_table(x, n * n) for x in (q0.numerator, q0.denominator,
                                        t0.numerator, t0.denominator))
    cells = []
    for hooks in _partition_hooks(n):
        den = 1
        for a, l, _ca, _cl in hooks:
            den *= ((qn[a] * td[l + 1] - tn[l + 1] * qd[a])
                    * (tn[l] * qd[a + 1] - qn[a + 1] * td[l]))
        cells.append((hooks, den))
    return powers, cells


def _gh_term(hooks: tuple[CellStats, ...], den: int,
             powers: tuple[list[int], ...]) -> tuple[int, int]:
    """One partition's summand
    t^(2 sum l) q^(2 sum a) (1-t)(1-q) prod'(1 - q^a' t^l') sum q^a' t^l'
    / prod (q^a - t^(l+1))(t^l - q^(a+1)),
    as its integer numerator and denominator, read in one pass over the
    cells; the product prod' skips the corner cell (a', l') = (0, 0), and
    den comes from _gh_cells.

    The coarms (a') sum to sum a and the colegs (l') to sum l, so the pass
    reads both sums off them.  The coarm sum is homogenised to N = n - 1,
    n the number of cells, which bounds every a' and l'.  Then the power of
    qd dividing the term is 2 sum a + 1 from the leading factors, N from
    the coarm sum and a' per factor of prod', less 2a + 1 per cell from
    clearing den: sum a in all, and likewise sum l for td."""
    qn, qd, tn, td = powers
    last = len(hooks) - 1
    sum_a = sum_l = coarm_sum = 0
    num = (td[1] - tn[1]) * (qd[1] - qn[1])
    for _a, _l, ca, cl in hooks:
        sum_a += ca
        sum_l += cl
        coarm_sum += qn[ca] * qd[last - ca] * tn[cl] * td[last - cl]
        if ca or cl:
            num *= qd[ca] * td[cl] - qn[ca] * tn[cl]
    return (num * coarm_sum * tn[2 * sum_l] * qn[2 * sum_a],
            den * qd[sum_a] * td[sum_l])


def gh_pole_check(n: int, q0: Fraction, t0: Fraction) -> bool:
    """True iff (q0, t0) avoids every denominator zero over partitions of n."""
    _powers, cells = _gh_cells(n, Fraction(q0), Fraction(t0))
    return all(den for _hooks, den in cells)


def gh_evaluate(n: int, q0: Fraction, t0: Fraction) -> Fraction:
    """Exact rational value of the partition sum for C_n(q, t)."""
    q0, t0 = Fraction(q0), Fraction(t0)
    if n == 0:
        # empty sum convention: the single empty partition contributes 1
        return Fraction(1)
    powers, cells = _gh_cells(n, q0, t0)
    if not all(den for _hooks, den in cells):
        raise PoleError(f"({q0}, {t0}) is a pole for n = {n}")
    # the terms over one common denominator, reduced once
    total, common = 0, 1
    for hooks, den in cells:
        num, den = _gh_term(hooks, den, powers)
        total = total * den + num * common
        common *= den
    return Fraction(total, common)


def gh_sample_points(n: int, count: int,
                     seed: int = GH_POINT_SEED) -> list[tuple[Fraction, Fraction]]:
    """Reproducible admissible rational points for cross-checking the sum.
    No coordinate is 0 or +-1, where the comparison tests little."""
    rng = random.Random(seed + n)
    points = []
    while len(points) < count:
        q0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if {q0, t0}.isdisjoint((0, 1, -1)) and gh_pole_check(n, q0, t0):
            points.append((q0, t0))
    return points
