"""Classical q-analogs, the q,t-Catalan polynomial, and exact rational-point
validation of the Garsia-Haiman partition sum.

C_n(q, t) = sum q^area t^bounce over the Dyck paths of order n has three
routes: the path sum (qt_catalan); the Garsia-Haglund bounce recurrence
(_bounce_recurrence), which enumerates no path; and the Garsia-Haiman
partition sum (gh_evaluate), which does not use bounce and is compared at
exact rational points.  qt_census runs every check of the qt command on one
path list: it counts the (area, bounce) pairs, as qt_catalan does, and the
maj values, and reads the area analog as C_n(q, 1), which the inv reversal
reads once it is checked; one q-Pascal table (_q_pascal) serves the bounce
recurrence and the maj quotient [2n choose n]_q / [n+1]_q.  cn_area and
cn_maj sum their one statistic and run its check alone, through the helpers
qt_census calls (_checked_area, _checked_maj).  The tests keep the
factorial quotient [n]! / ([k]! [n-k]!) as the oracle for that table.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple

from .checks import agree
from .config import check_order
# path_stats is no longer called here, but stays bound as qt.path_stats:
# bench/tests/test_harness.py checks that the tracer rebinds it by name, and
# tests/test_boundary.py that the binding stays
from .paths import (CellStats, DyckPath, Partition, _bounce, _maj,
                    catalan_closed, cell_stats, enumerate_paths,
                    path_stats)  # noqa: F401
from .polynomials import BiPoly, UniPoly, power_table

GH_POINT_SEED = 20080108  # fixed seed for reproducible evaluation points
# The point at which the qt command checks C_n(q, t) against the partition
# sum.  2/3 and -5/7 are built from distinct primes, so q0^i = t0^j only for
# i = j = 0: no denominator factor q^a - t^(l+1) or t^l - q^(a+1) vanishes
# at any order.  Neither is 0 or +-1, where the check would test little.
GH_CHECK_POINT = (Fraction(2, 3), Fraction(-5, 7))


def _q_int_uni(n: int) -> UniPoly:
    return UniPoly({e: 1 for e in range(n)})


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


def _carlitz(n: int, shift: Callable[[int, int], int]) -> BiPoly:
    """C_n(q) by the Carlitz-Riordan recurrence C_0 = 1,
    C_{m+1}(q) = sum_k q^{shift(k, m)} C_k(q) C_{m-k}(q): the shift k gives
    the area analog, (k + 1)(m - k) the inv analog."""
    polys = [BiPoly.one()]
    for m in range(n):
        polys.append(sum((BiPoly.monomial(shift(k, m), 0) * polys[k]
                          * polys[m - k] for k in range(m + 1)),
                         BiPoly.zero()))
    return polys[n]


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
    """From one path list: C_n(q, t) must equal the bounce recurrence, its
    value at (1, 1) C_n and its value at GH_CHECK_POINT the partition sum;
    the area analog must equal the area recurrence, the inv analog that
    recurrence reversed, and the maj analog [2n choose n]_q / [n+1]_q.  A
    disagreement raises AssertionError."""
    path_list = enumerate_paths(n)
    poly = _area_bounce(path_list)
    # one q-Pascal table serves the bounce recurrence and the maj quotient
    pascal = _q_pascal(2 * n)
    agree("q,t-Catalan path sum and the bounce recurrence",
          poly, _bounce_recurrence(n, pascal))
    count = agree("q,t-Catalan value at (1, 1) and the Catalan number",
                  poly(1, 1), catalan_closed(n))
    # the partition sum is the one route that does not use bounce
    q0, t0 = GH_CHECK_POINT
    agree("q,t-Catalan path sum and the partition sum at GH_CHECK_POINT",
          poly.evaluate_exact(q0, t0), gh_evaluate(n, q0, t0))
    # the inv recurrence is checked against the area analog reversed, once
    # the analog has passed its own check
    area = _checked_area(n, poly.substitute_t_one())
    inv = _inv_analog(n, area)
    maj = _checked_maj(n, path_list, pascal)
    return QtCensus(poly=poly, area=area, inv=inv, maj=maj, count=count)


def _checked_area(n: int, area: BiPoly) -> BiPoly:
    """area, the area analog of order n, once it equals the area
    recurrence."""
    return agree("area q-analog path sum and recurrence",
                 area, _carlitz(n, lambda k, m: k))


def _checked_maj(n: int, path_list: list[DyckPath],
                 pascal: list[list[list[int]]]) -> BiPoly:
    """Sum of q^{maj(D)} over the paths of order n, checked against
    [2n choose n]_q / [n+1]_q; pascal must reach row 2n."""
    return agree("maj q-analog path sum and quotient",
                 BiPoly(Counter((_maj(d), 0) for d in path_list)),
                 BiPoly.from_q(UniPoly.from_list(pascal[2 * n][n])
                               .divide_exact(_q_int_uni(n + 1))))


def cn_area(n: int) -> BiPoly:
    """Sum of q^{area(D)}, checked against the area recurrence."""
    return _checked_area(n, BiPoly(Counter((d.area, 0)
                                           for d in enumerate_paths(n))))


def cn_inv(n: int) -> BiPoly:
    """Sum of q^{inv(D)} by the inversion recurrence, checked against the
    area recurrence reversed about C(n,2); no path is enumerated."""
    return _inv_analog(n, _carlitz(n, lambda k, m: k))


def cn_maj(n: int) -> BiPoly:
    """Sum of q^{maj(D)}, checked against [2n choose n]_q / [n+1]_q."""
    return _checked_maj(n, enumerate_paths(n), _q_pascal(2 * n))


def qt_catalan(n: int) -> BiPoly:
    """Sum of q^{area(D)} t^{bounce(D)} over all paths of order n."""
    return _area_bounce(enumerate_paths(n))


def _area_bounce(path_list: list[DyckPath]) -> BiPoly:
    """Sum of q^{area(D)} t^{bounce(D)} over path_list: its (area, bounce)
    pairs counted once."""
    return BiPoly(Counter((d.area, _bounce(d)) for d in path_list))


def _q_pascal(top: int) -> list[list[list[int]]]:
    """Rows 0..top of the q-binomials: row m lists [m choose k]_q for
    k = 0..m as ascending coefficient lists, by the q-Pascal rule
    [m choose k]_q = [m-1 choose k-1]_q + q^k [m-1 choose k]_q."""
    rows = [[[1]]]
    for m in range(1, top + 1):
        prev = rows[-1]
        row = [[1]]
        for k in range(1, m):
            # [m choose k]_q has degree k (m - k)
            coeffs = prev[k - 1] + [0] * (k * (m - k) + 1 - len(prev[k - 1]))
            for e, c in enumerate(prev[k], k):
                coeffs[e] += c
            row.append(coeffs)
        row.append([1])
        rows.append(row)
    return rows


def _bounce_recurrence(n: int, pascal: list[list[list[int]]]) -> BiPoly:
    """C_n(q, t) by the Garsia-Haglund recurrence, enumerating no path:
    F_{m,m} = q^C(m,2) and, for 1 <= k < m,
    F_{m,k} = t^(m-k) q^C(k,2) sum_{r=1}^{m-k} [r+k-1 choose r]_q F_{m-k,r},
    with C_n = sum_k F_{n,k}.  F_{m,k} sums over the paths of order m that
    end in exactly k east steps, the first leg of their bounce path from
    (m, m); pascal must reach row n - 1."""
    if n == 0:
        return BiPoly.one()
    # f[m][k] is F_{m,k} as a dict from (q, t) exponents to coefficients
    f: list[dict[int, Counter]] = [{}]
    for m in range(1, n + 1):
        row = {m: Counter({(comb(m, 2), 0): 1})}
        for k in range(1, m):
            q_shift, t_exp = comb(k, 2), m - k
            total: Counter = Counter()
            for r in range(1, m - k + 1):
                binomial = pascal[r + k - 1][r]
                for (qe, te), c in f[m - k][r].items():
                    for e, b in enumerate(binomial, qe + q_shift):
                        total[e, te + t_exp] += b * c
            row[k] = total
        f.append(row)
    c_n: Counter = Counter()
    for poly in f[n].values():
        c_n.update(poly)
    return BiPoly(c_n)


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
    return poly(1, 1)


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
             powers: tuple[list[int], ...]) -> Fraction:
    """One partition's summand
    t^(2 sum l) q^(2 sum a) (1-t)(1-q) prod'(1 - q^a' t^l') sum q^a' t^l'
    / prod (q^a - t^(l+1))(t^l - q^(a+1)),
    as integer products and one Fraction; the product prod' skips the
    corner cell (a', l') = (0, 0), and den comes from _gh_cells."""
    qn, qd, tn, td = powers
    sum_a = sum(h[0] for h in hooks)
    sum_l = sum(h[1] for h in hooks)
    top_ca = max(h[2] for h in hooks)
    top_cl = max(h[3] for h in hooks)
    num = (tn[2 * sum_l] * qn[2 * sum_a]
           * (td[1] - tn[1]) * (qd[1] - qn[1]))
    # the power of qd dividing the term: 2 sum a + 1 from the leading
    # factors, top_ca from the coarm sum and ca per factor of prod', less
    # 2a + 1 per cell from clearing den; likewise for td
    exp_b = 1 + top_ca - len(hooks)
    exp_d = 1 + top_cl - len(hooks)
    coarm_sum = 0
    for _a, _l, ca, cl in hooks:
        coarm_sum += qn[ca] * qd[top_ca - ca] * tn[cl] * td[top_cl - cl]
        if ca or cl:
            num *= qd[ca] * td[cl] - qn[ca] * tn[cl]
            exp_b += ca
            exp_d += cl
    num *= coarm_sum
    if exp_b < 0:
        num *= qd[-exp_b]
    else:
        den *= qd[exp_b]
    if exp_d < 0:
        num *= td[-exp_d]
    else:
        den *= td[exp_d]
    return Fraction(num, den)


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
    return sum((_gh_term(hooks, den, powers) for hooks, den in cells),
               Fraction(0))


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
