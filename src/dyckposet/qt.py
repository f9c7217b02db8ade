"""Classical q-analogs, the q,t-Catalan polynomial, and exact rational-point
validation of the Garsia-Haiman partition sum."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import comb
from typing import Callable

# path_stats is no longer called here, but stays bound as qt.path_stats:
# bench/tests/test_harness.py checks that the tracer rebinds it by name
from .paths import (DyckPath, Partition, _bounce, _maj, enumerate_paths,
                    path_stats)  # noqa: F401
from .polynomials import BiPoly, UniPoly, power_table

GH_POINT_SEED = 20080108  # fixed seed for reproducible evaluation points
# The point at which the qt command checks C_n(q, t) against the partition
# sum.  2/3 and -5/7 are built from distinct primes, so q0^i = t0^j only for
# i = j = 0: no denominator factor q^a - t^(l+1) or t^l - q^(a+1) vanishes
# at any order.  Neither is 0 or +-1, where the check would test little.
GH_CHECK_POINT = (Fraction(2, 3), Fraction(-5, 7))


def q_int(n: int) -> BiPoly:
    """[n]_q = 1 + q + ... + q^{n-1}."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return BiPoly({(e, 0): 1 for e in range(n)})


def _q_int_uni(n: int) -> UniPoly:
    return UniPoly({e: 1 for e in range(n)})


def _q_factorial_uni(n: int) -> UniPoly:
    poly = UniPoly.one()
    for k in range(1, n + 1):
        poly = poly * _q_int_uni(k)
    return poly


def q_factorial(n: int) -> BiPoly:
    return BiPoly.from_q(_q_factorial_uni(n))


def q_binomial(n: int, k: int) -> BiPoly:
    """[n]! / ([k]! [n-k]!) by exact division."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    numerator = _q_factorial_uni(n)
    quotient = numerator.divide_exact(_q_factorial_uni(k))
    quotient = quotient.divide_exact(_q_factorial_uni(n - k))
    return BiPoly.from_q(quotient)


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


def _path_sum(n: int,
              key: Callable[[DyckPath], tuple[int, int]]) -> BiPoly:
    """Sum of q^qe t^te over the paths of order n, (qe, te) = key(path)."""
    return BiPoly(Counter(map(key, enumerate_paths(n))))


def _carlitz(n: int, shift: Callable[[int, int], int]) -> BiPoly:
    """C_n(q) by the Carlitz-Riordan recurrence C_0 = 1,
    C_{m+1}(q) = sum_k q^{shift(k, m)} C_k(q) C_{m-k}(q): the shift k gives
    the area analog, (k + 1)(m - k) the inv analog."""
    polys = [BiPoly.one()]
    for m in range(n):
        total = BiPoly.zero()
        for k in range(m + 1):
            total = total + BiPoly.monomial(shift(k, m), 0) \
                * polys[k] * polys[m - k]
        polys.append(total)
    return polys[n]


def cn_area(n: int) -> BiPoly:
    """Sum of q^{area(D)}, computed both by path summation and by the
    area recurrence; the two must agree."""
    direct = _path_sum(n, lambda d: (d.area, 0))
    if direct != _carlitz(n, lambda k, m: k):
        raise AssertionError("area q-analog: path sum disagrees with recurrence")
    return direct


def cn_inv(n: int) -> BiPoly:
    """Sum of q^{inv(D)} by the inversion recurrence, checked against the
    area recurrence reversed about C(n,2)."""
    top = comb(n, 2)
    reversed_poly = BiPoly({(top - qe, 0): c for (qe, _te), c
                            in _carlitz(n, lambda k, m: k).coeffs.items()})
    inv = _carlitz(n, lambda k, m: (k + 1) * (m - k))
    if inv != reversed_poly:
        raise AssertionError("inv q-analog: reversal disagrees with recurrence")
    return inv


def cn_maj(n: int) -> BiPoly:
    """Sum of q^{maj(D)}, cross-checked against [2n choose n]_q / [n+1]_q."""
    direct = _path_sum(n, lambda d: (_maj(d), 0))
    quotient = BiPoly.from_q(
        q_binomial(2 * n, n).q_part().divide_exact(_q_int_uni(n + 1)))
    if direct != quotient:
        raise AssertionError("maj q-analog: path sum disagrees with quotient")
    return direct


def qt_catalan(n: int) -> BiPoly:
    """Sum of q^{area(D)} t^{bounce(D)} over all paths of order n."""
    return _path_sum(n, lambda d: (d.area, _bounce(d)))


def qt_specialize(n: int, mode: str):
    """Specializations of the q,t-Catalan polynomial: t -> 1 gives the area
    analog, q^{C(n,2)} P(q, 1/q) gives the maj analog, (1,1) the count."""
    poly = qt_catalan(n)
    if mode == "area":
        return poly.substitute_t_one()
    if mode == "maj":
        return poly.t_to_inverse_q(comb(n, 2))
    if mode == "count":
        return poly(1, 1)
    raise ValueError(f"unknown specialization mode {mode!r}")


def symmetry_check(n: int) -> bool:
    poly = qt_catalan(n)
    return poly.swap_variables() == poly


# ---------------------------------------------------------------------------
# the Garsia-Haiman partition sum


class PoleError(ArithmeticError):
    """A denominator factor of the partition sum vanishes at this point."""


def _cell_hooks(partition: Partition) -> list[tuple[int, int, int, int]]:
    """(arm, leg, coarm, coleg) of every cell, read from the parts and
    their conjugate in one pass."""
    parts = partition.parts
    cols = partition.conjugate().parts
    return [(size - c - 1, cols[c] - r - 1, c, r)
            for r, size in enumerate(parts) for c in range(size)]


def _gh_cells(n: int, q0: Fraction, t0: Fraction):
    """Power tables of qn, qd, tn, td (q0 = qn/qd, t0 = tn/td) up to n^2,
    which bounds every exponent _gh_term reads, and for each partition of n
    its cell hooks and den: the product over cells of
    (q^a - t^(l+1))(t^l - q^(a+1)) with qd and td cleared, in integers.
    den is zero iff one of its factors vanishes at (q0, t0)."""
    powers = qn, qd, tn, td = tuple(
        power_table(x, n * n) for x in (q0.numerator, q0.denominator,
                                        t0.numerator, t0.denominator))
    cells = []
    for mu in _partitions(n):
        hooks = _cell_hooks(mu)
        den = 1
        for a, l, _ca, _cl in hooks:
            den *= ((qn[a] * td[l + 1] - tn[l + 1] * qd[a])
                    * (tn[l] * qd[a + 1] - qn[a + 1] * td[l]))
        cells.append((hooks, den))
    return powers, cells


def _gh_term(hooks: list[tuple[int, int, int, int]], den: int,
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
    """Reproducible admissible rational points for cross-checking the sum."""
    rng = random.Random(seed + n)
    points = []
    while len(points) < count:
        q0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if gh_pole_check(n, q0, t0):
            points.append((q0, t0))
    return points
