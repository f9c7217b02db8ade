"""Direct tests of the sparse polynomial arithmetic against a dense oracle:
coefficient lists (one variable) and coefficient grids (q, t), multiplied by
plain convolution."""

import pytest
from hypothesis import given, settings, strategies as st

from dyckposet import BiPoly, UniPoly
from dyckposet.polynomials import _unpack, pack_width
from oracles import divide_exact

COEFF = st.integers(-4, 4)
UNI = st.dictionaries(st.integers(0, 5), COEFF, max_size=6).map(UniPoly)
BI = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), COEFF,
                     max_size=6).map(BiPoly)
NONZERO_UNI = UNI.filter(bool)


# ---------------------------------------------------------------------------
# the dense oracle


def _dense_uni(p: UniPoly, size: int) -> list[int]:
    return [p.coeffs.get(e, 0) for e in range(size)]


def _dense_bi(p: BiPoly, size: int) -> list[list[int]]:
    return [[p.coeffs.get((qe, te), 0) for te in range(size)]
            for qe in range(size)]


def _from_dense_uni(dense: list[int]) -> dict[int, int]:
    return {e: c for e, c in enumerate(dense) if c}


def _from_dense_bi(dense: list[list[int]]) -> dict[tuple[int, int], int]:
    return {(qe, te): c for qe, row in enumerate(dense)
            for te, c in enumerate(row) if c}


def _convolve_uni(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _convolve_bi(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    size = len(a) + len(b)
    out = [[0] * size for _ in range(size)]
    for q1, row1 in enumerate(a):
        for t1, x in enumerate(row1):
            for q2, row2 in enumerate(b):
                for t2, y in enumerate(row2):
                    out[q1 + q2][t1 + t2] += x * y
    return out


def _oracle_uni(op, a: UniPoly, b: UniPoly) -> dict[int, int]:
    da, db = _dense_uni(a, 6), _dense_uni(b, 6)
    if op == "*":
        return _from_dense_uni(_convolve_uni(da, db))
    sign = 1 if op == "+" else -1
    return _from_dense_uni([x + sign * y for x, y in zip(da, db)])


def _oracle_bi(op, a: BiPoly, b: BiPoly) -> dict[tuple[int, int], int]:
    da, db = _dense_bi(a, 4), _dense_bi(b, 4)
    if op == "*":
        return _from_dense_bi(_convolve_bi(da, db))
    sign = 1 if op == "+" else -1
    return _from_dense_bi([[x + sign * y for x, y in zip(ra, rb)]
                           for ra, rb in zip(da, db)])


def _apply(op, a, b):
    return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b}[op]()


def _assert_canonical(p) -> None:
    assert 0 not in p.coeffs.values()
    keys = [term[:-1] for term in p.terms()]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys) == len(p.coeffs)


# ---------------------------------------------------------------------------
# arithmetic against the oracle


@pytest.mark.parametrize("op", ["+", "-", "*"])
@settings(max_examples=60, deadline=None)
@given(a=UNI, b=UNI)
def test_unipoly_binary_ops(op, a, b):
    result = _apply(op, a, b)
    assert type(result) is UniPoly
    assert result.coeffs == _oracle_uni(op, a, b)
    _assert_canonical(result)


@pytest.mark.parametrize("op", ["+", "-", "*"])
@settings(max_examples=60, deadline=None)
@given(a=BI, b=BI)
def test_bipoly_binary_ops(op, a, b):
    result = _apply(op, a, b)
    assert type(result) is BiPoly
    assert result.coeffs == _oracle_bi(op, a, b)
    _assert_canonical(result)


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(UNI, BI))
def test_negation(p):
    neg = -p
    assert type(neg) is type(p)
    assert neg.coeffs == {k: -c for k, c in p.coeffs.items()}
    assert -neg == p
    assert p + neg == 0
    assert not p + neg
    _assert_canonical(neg)


@settings(max_examples=40, deadline=None)
@given(p=UNI, k=st.integers(0, 4))
def test_unipoly_power(p, k):
    dense = [1]
    for _ in range(k):
        dense = _convolve_uni(dense, _dense_uni(p, 6))
    power = p ** k
    assert power.coeffs == _from_dense_uni(dense)
    _assert_canonical(power)


@pytest.mark.parametrize("k", [-1, -4])
def test_negative_power_refused(k):
    # a negative k stays negative under k >> 1, so squaring would not stop
    with pytest.raises(ValueError):
        UniPoly.x() ** k


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(UNI, BI), c=st.integers(-5, 5))
def test_int_operands(p, c):
    const = UniPoly({0: c}) if isinstance(p, UniPoly) else BiPoly({(0, 0): c})
    assert p + c == c + p == p + const
    assert p - c == p - const
    assert p * c == c * p == p * const
    assert (p == c) == (p.coeffs == const.coeffs)


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(UNI, BI))
def test_equality_and_hash(p):
    copy = type(p)(dict(p.coeffs))
    assert copy == p and not copy != p
    assert hash(copy) == hash(p)
    assert p != p + 1


@settings(max_examples=40, deadline=None)
@given(p=UNI, x=st.integers(-3, 3))
def test_unipoly_evaluation(p, x):
    assert p(x) == sum(c * x ** e for e, c in enumerate(_dense_uni(p, 6)))


@settings(max_examples=40, deadline=None)
@given(p=BI, q0=st.integers(-3, 3), t0=st.integers(-3, 3))
def test_bipoly_evaluation(p, q0, t0):
    dense = _dense_bi(p, 4)
    assert p(q0, t0) == sum(c * q0 ** qe * t0 ** te
                            for qe, row in enumerate(dense)
                            for te, c in enumerate(row))


# ---------------------------------------------------------------------------
# constants, canonical form and conversions


def test_constants_on_the_class():
    assert UniPoly() == 0 and not UniPoly()
    assert UniPoly.one() == 1 and UniPoly.one().terms() == [(0, 1)]
    assert BiPoly() == 0 and not BiPoly()
    assert BiPoly.one() == 1 and BiPoly.one().terms() == [(0, 0, 1)]


def test_zero_coefficients_dropped_on_construction():
    assert UniPoly({0: 0, 3: 0}).coeffs == {}
    assert UniPoly({2: 5, 1: 0}).terms() == [(2, 5)]
    assert BiPoly({(1, 1): 0, (0, 2): -1}).terms() == [(0, 2, -1)]


def test_terms_in_canonical_order():
    assert UniPoly({3: 1, 0: 2, 1: -1}).terms() == [(0, 2), (1, -1), (3, 1)]
    assert BiPoly({(1, 0): 1, (0, 2): 2, (0, 1): 3}).terms() == \
        [(0, 1, 3), (0, 2, 2), (1, 0, 1)]


@pytest.mark.parametrize("c", [0, 1, -1, -2])
def test_constants_hash_as_their_int(c):
    # a constant polynomial equals its int, so a set holds the two once
    for const in (UniPoly({0: c}), BiPoly({(0, 0): c})):
        assert const == c and hash(const) == hash(c)
        assert len({c, const}) == 1
    assert len({1, UniPoly.one()}) == len({0, BiPoly()}) == 1


@pytest.mark.parametrize("c", [0, 1, -2])
def test_unipoly_never_equals_bipoly(c):
    uni, bi = UniPoly({0: c}), BiPoly({(0, 0): c})
    assert uni == c and bi == c
    assert uni != bi and bi != uni
    assert not uni == bi


@settings(max_examples=60, deadline=None)
@given(a=UNI, b=NONZERO_UNI)
def test_divide_exact_recovers_factor(a, b):
    assert divide_exact(a * b, b) == a


@settings(max_examples=60, deadline=None)
@given(a=UNI, b=NONZERO_UNI.filter(lambda p: p.degree >= 1),
       data=st.data())
def test_divide_exact_rejects_remainder(a, b, data):
    remainder = data.draw(st.dictionaries(
        st.integers(0, b.degree - 1), COEFF, max_size=3).map(UniPoly)
        .filter(bool))
    with pytest.raises(ArithmeticError):
        divide_exact(a * b + remainder, b)


def test_divide_exact_rejects_fractional_quotient():
    with pytest.raises(ArithmeticError):
        divide_exact(UniPoly({0: 1, 1: 1}), UniPoly({1: 2}))
    with pytest.raises(ZeroDivisionError):
        divide_exact(UniPoly.one(), UniPoly())


# ---------------------------------------------------------------------------
# Kronecker packing


@pytest.mark.parametrize("bound, width", [
    (0, 1), (1, 2), (2, 3), (3, 3), (4, 4), (7, 4), (8, 5),
    (132, 9), (2**52 - 1, 53), (2**52, 54)])
def test_pack_width_is_the_bit_length_and_a_spare_bit(bound, width):
    assert pack_width(bound) == width
    # every coefficient within the bound leaves the spare bit clear
    assert bound < 1 << width - 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 200), max_size=8))
def test_unpack_reads_back_what_pack_width_packs(coeffs):
    width = pack_width(max(coeffs, default=0))
    packed = sum(c << width * k for k, c in enumerate(coeffs))
    while coeffs and not coeffs[-1]:
        coeffs.pop()  # high zero coefficients leave no digit
    assert _unpack(packed, width) == tuple(coeffs)


@pytest.mark.parametrize("coeffs", [[4], [1, 0, 7], [0, 5, 3], [7, 7, 7]])
def test_unpack_refuses_a_set_spare_bit(coeffs):
    # 3 bits: 4 through 7 set the spare bit, here in some digit
    packed = sum(c << 3 * k for k, c in enumerate(coeffs))
    with pytest.raises(ValueError, match="spare bit"):
        _unpack(packed, 3)
