"""Reference routes that more than one test module compares the package
against.  No command runs them, so they live with the tests."""

from dyckposet import UniPoly


def is_below(d1, d2):
    """True iff path d1 lies weakly below path d2: heights compared column
    by column."""
    if d1.order != d2.order:
        raise ValueError("paths must have the same order")
    return all(h1 <= h2 for h1, h2 in
               zip(d1.column_heights(), d2.column_heights()))


def covers(p, i, j):
    """True iff element j covers element i of the poset p."""
    return bool(p.cover_up[i] >> j & 1)


def divide_exact(poly, divisor):
    """poly / divisor for UniPolys by long division; raises if the
    remainder is nonzero or a division step would leave the integers."""
    if not divisor:
        raise ZeroDivisionError("division by zero polynomial")
    rem = dict(poly.coeffs)
    quot = {}
    dd = divisor.degree
    lead = divisor.coeffs[dd]
    while rem:
        rd = max(rem)
        if rd < dd:
            raise ArithmeticError("nonzero remainder in exact division")
        c, r = divmod(rem[rd], lead)
        if r != 0:
            raise ArithmeticError("non-integer quotient in exact division")
        quot[rd - dd] = c
        for e, dc in divisor.coeffs.items():
            key = rd - dd + e
            rem[key] = rem.get(key, 0) - c * dc
            if rem[key] == 0:
                del rem[key]
    return UniPoly(quot)
