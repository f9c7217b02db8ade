"""Sparse integer-coefficient polynomials in one variable and in (q, t).

A polynomial is a dict from exponent keys to nonzero integer coefficients:
int keys for UniPoly, (q, t) pairs for BiPoly.  _SparsePoly holds the dict
and every operation that does not look inside a key; each class adds the
key-dependent parts (multiplication, terms, evaluation, printing) and its
own conversions.  Zero coefficients are never stored, and term iteration is
in a fixed canonical order so serialized output is deterministic.

Where a layer's polynomial arithmetic is hot, it carries a polynomial as one
int instead, a big-int sum or product per operation, and _unpack reads its
coefficients back.  One rule sets every packing width: pack_width, from the
bound on the coefficients that the caller proves, with one spare bit that
_unpack checks in every run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


def pack_width(bound: int) -> int:
    """The bits per coefficient B of a packing whose coefficients the caller
    proves are at most bound: bound's bit length and one spare bit.

    The packing P(2^B) is exact while every coefficient of P lies in
    [0, 2^B): a larger one carries into the next.  When P and every sum and
    product that built it have nonnegative coefficients, the bound on P's
    coefficients is enough, as no intermediate one exceeds its final one.
    A coefficient within its bound is below 2^(B - 1), so the top bit of
    every digit, the spare bit, stays 0; _unpack refuses a digit that sets
    it, so a bound that is wrong by up to a factor of two ends in
    ValueError, never in a wrong coefficient.
    """
    return bound.bit_length() + 1


def _unpack(packed: int, width: int) -> tuple[int, ...]:
    """The coefficients, lowest first, of the polynomial P packed width bits
    apiece as the int P(2^width) (Kronecker substitution), width being
    pack_width of the caller's bound.

    Raises ValueError when a coefficient has its spare (top) bit set: the
    bound that set the width is wrong, and the coefficient may have carried
    into the next.  A bound wrong by more than a factor of two can carry
    past the spare bit unseen, which is left to each caller's check against
    a second route.
    """
    digit = (1 << width) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & digit)
        packed >>= width
    if coeffs and max(coeffs) >> width - 1:
        raise ValueError(f"a coefficient of a {width}-bit packing sets its "
                         "spare bit: the bound that set the width is wrong")
    return tuple(coeffs)


def power_table(x: int, top: int) -> list[int]:
    """[x^0, x^1, ..., x^top]."""
    table = [1]
    for _ in range(top):
        table.append(table[-1] * x)
    return table


class _SparsePoly:
    """The coefficient dict and the arithmetic that does not look inside a
    key; _CONST is the key of the constant term, used to coerce ints."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping | None = None):
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def one(cls):
        return cls({cls._CONST: 1})

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self)({self._CONST: other})
        return other

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash as that int
        if self.coeffs.keys() <= {self._CONST}:
            return hash(self.coeffs.get(self._CONST, 0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in self._coerce(other).coeffs.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other: int):
        return self._coerce(other) - self


class UniPoly(_SparsePoly):
    """Sparse univariate polynomial with integer coefficients."""

    __slots__ = ()
    _CONST = 0

    @staticmethod
    def x() -> "UniPoly":
        return UniPoly({1: 1})

    @staticmethod
    def from_list(ascending: Iterable[int]) -> "UniPoly":
        return UniPoly({e: c for e, c in enumerate(ascending)})

    def terms(self) -> list[tuple[int, int]]:
        return sorted(self.coeffs.items())

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=-1)

    def __mul__(self, other: "UniPoly | int") -> "UniPoly":
        other = self._coerce(other)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = e1 + e2
                out[key] = out.get(key, 0) + c1 * c2
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        result = UniPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __call__(self, x):
        return sum(c * x ** e for e, c in self.coeffs.items())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{e}" if c != 1 else f"t^{e}")
        return " + ".join(parts)


class BiPoly(_SparsePoly):
    """Sparse polynomial in q and t with integer coefficients."""

    __slots__ = ()
    _CONST = (0, 0)

    def terms(self) -> list[tuple[int, int, int]]:
        """(q-exponent, t-exponent, coefficient) in canonical order."""
        return [(qe, te, c) for (qe, te), c in sorted(self.coeffs.items())]

    def __mul__(self, other: "BiPoly | int") -> "BiPoly":
        other = self._coerce(other)
        out: dict[tuple[int, int], int] = {}
        for (q1, t1), c1 in self.coeffs.items():
            for (q2, t2), c2 in other.coeffs.items():
                key = (q1 + q2, t1 + t2)
                out[key] = out.get(key, 0) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def __call__(self, q0, t0):
        return sum(c * q0 ** qe * t0 ** te
                   for (qe, te), c in self.coeffs.items())

    def evaluate_exact(self, q0: Fraction, t0: Fraction) -> Fraction:
        """The value at rational (q0, t0) = (a/b, c/d), homogenised to
        sum coeff a^i b^(Q-i) c^j d^(T-j) / (b^Q d^T), with Q and T the top
        exponents, in integers and one Fraction."""
        if not self:
            return Fraction(0)
        q0, t0 = Fraction(q0), Fraction(t0)
        top_q = max(qe for qe, _te in self.coeffs)
        top_t = max(te for _qe, te in self.coeffs)
        qn, qd = (power_table(x, top_q) for x in (q0.numerator, q0.denominator))
        tn, td = (power_table(x, top_t) for x in (t0.numerator, t0.denominator))
        total = sum(c * qn[qe] * qd[top_q - qe] * tn[te] * td[top_t - te]
                    for (qe, te), c in self.coeffs.items())
        return Fraction(total, qd[top_q] * td[top_t])

    def substitute_t_one(self) -> "BiPoly":
        out: dict[tuple[int, int], int] = {}
        for (qe, _te), c in self.coeffs.items():
            key = (qe, 0)
            out[key] = out.get(key, 0) + c
        return BiPoly(out)

    def swap_variables(self) -> "BiPoly":
        return BiPoly({(te, qe): c for (qe, te), c in self.coeffs.items()})

    def t_to_inverse_q(self, shift: int) -> "BiPoly":
        """q^shift * P(q, 1/q) by exponent arithmetic; raises if a negative
        q-exponent survives."""
        out: dict[tuple[int, int], int] = {}
        for (qe, te), c in self.coeffs.items():
            exp = shift + qe - te
            if exp < 0:
                raise ArithmeticError("negative exponent after specialization")
            key = (exp, 0)
            out[key] = out.get(key, 0) + c
        return BiPoly(out)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for qe, te, c in self.terms():
            body = "".join((
                "" if c == 1 and (qe or te) else str(c),
                f"q^{qe}" if qe > 1 else ("q" if qe == 1 else ""),
                f"t^{te}" if te > 1 else ("t" if te == 1 else ""),
            ))
            parts.append(body or str(c))
        return " + ".join(parts)
