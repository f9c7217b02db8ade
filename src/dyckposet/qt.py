"""Classical q-analogs, the q,t-Catalan polynomial, and exact rational-point
validation of the Garsia-Haiman partition sum."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import comb
from typing import Callable

from .paths import (DyckPath, Partition, _bounce, cell_stats,
                    enumerate_paths, path_stats)
from .polynomials import BiPoly, UniPoly

GH_POINT_SEED = 20080108  # fixed seed for reproducible evaluation points


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
    direct = _path_sum(n, lambda d: (path_stats(d).maj, 0))
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


def _gh_term(partition: Partition, q0: Fraction, t0: Fraction) -> Fraction:
    stats = cell_stats(partition)
    sum_a = sum(s.arm for s in stats.values())
    sum_l = sum(s.leg for s in stats.values())
    numerator = t0 ** (2 * sum_l) * q0 ** (2 * sum_a) * (1 - t0) * (1 - q0)
    coarm_sum = Fraction(0)
    for s in stats.values():
        coarm_sum += q0 ** s.coarm * t0 ** s.coleg
        if (s.coarm, s.coleg) != (0, 0):
            numerator *= 1 - q0 ** s.coarm * t0 ** s.coleg
    numerator *= coarm_sum
    denominator = Fraction(1)
    for s in stats.values():
        f1 = q0 ** s.arm - t0 ** (s.leg + 1)
        f2 = t0 ** s.leg - q0 ** (s.arm + 1)
        if f1 == 0 or f2 == 0:
            raise PoleError("denominator factor vanishes")
        denominator *= f1 * f2
    return numerator / denominator


def gh_pole_check(n: int, q0: Fraction, t0: Fraction) -> bool:
    """True iff (q0, t0) avoids every denominator zero over partitions of n."""
    for partition in _partitions(n):
        for s in cell_stats(partition).values():
            if q0 ** s.arm == t0 ** (s.leg + 1):
                return False
            if t0 ** s.leg == q0 ** (s.arm + 1):
                return False
    return True


def gh_evaluate(n: int, q0: Fraction, t0: Fraction) -> Fraction:
    """Exact rational value of the partition sum for C_n(q, t)."""
    q0, t0 = Fraction(q0), Fraction(t0)
    if n == 0:
        # empty sum convention: the single empty partition contributes 1
        return Fraction(1)
    if not gh_pole_check(n, q0, t0):
        raise PoleError(f"({q0}, {t0}) is a pole for n = {n}")
    return sum((_gh_term(mu, q0, t0) for mu in _partitions(n)), Fraction(0))


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
