from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from dyckposet import (GH_CHECK_POINT, BiPoly, PoleError, catalan_closed,
                       cell_stats, cn_area, cn_inv, cn_maj, enumerate_paths,
                       gh_evaluate, gh_pole_check, gh_sample_points,
                       path_stats, qt, qt_catalan, qt_census, qt_specialize,
                       symmetry_check)
from dyckposet.config import MAX_ORDER
from dyckposet.paths import _halves
from dyckposet.polynomials import UniPoly, _unpack
from dyckposet.qt import (_bounce_recurrence, _carlitz, _maj_sum, _partitions,
                          _q_pascal)
from oracles import divide_exact


def _bipoly(coeffs):
    return BiPoly(dict(coeffs))


def _q_int(n):
    """[n]_q = 1 + q + ... + q^(n-1)."""
    return UniPoly({e: 1 for e in range(n)})


def _q_factorial(n):
    return prod(map(_q_int, range(1, n + 1)), start=UniPoly.one())


def q_binomial(n, k):
    """Oracle for the q-Pascal table: [n]! / ([k]! [n-k]!) by exact
    division."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    quotient = divide_exact(_q_factorial(n), _q_factorial(k))
    return divide_exact(quotient, _q_factorial(n - k))


# Oracles for the packed routes of qt: the recurrences on BiPoly and
# coefficient lists, as written before they were packed


def _carlitz_oracle(n, shift):
    polys = [BiPoly.one()]
    for m in range(n):
        polys.append(sum((BiPoly({(shift(k, m), 0): 1}) * polys[k]
                          * polys[m - k] for k in range(m + 1)), BiPoly()))
    return polys[n]


def _q_pascal_oracle(top):
    """Rows 0..top of the q-binomials as ascending coefficient lists."""
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


def _bounce_oracle(n, pascal):
    """The Garsia-Haglund recurrence of qt._bounce_recurrence on Counters;
    pascal as from _q_pascal_oracle, reaching row n - 1."""
    if n == 0:
        return BiPoly.one()
    f = [{}]
    for m in range(1, n + 1):
        row = {m: Counter({(comb(m, 2), 0): 1})}
        for k in range(1, m):
            q_shift, t_exp = comb(k, 2), m - k
            total = Counter()
            for r in range(1, m - k + 1):
                binomial = pascal[r + k - 1][r]
                for (qe, te), c in f[m - k][r].items():
                    for e, b in enumerate(binomial, qe + q_shift):
                        total[e, te + t_exp] += b * c
            row[k] = total
        f.append(row)
    c_n = Counter()
    for poly in f[n].values():
        c_n.update(poly)
    return BiPoly(c_n)


def _area_shift(k, m):
    return k


def _inv_shift(k, m):
    return (k + 1) * (m - k)


def _maj_poly(n):
    """qt._maj_sum unpacked, at the width of _q_pascal(2n)."""
    width = _q_pascal(2 * n)[0]
    maj = _maj_sum(n, width, _halves(n))
    return BiPoly({(e, 0): c for e, c in enumerate(_unpack(maj, width))})


def _per_path_sums(n):
    """C_n(q, t) and the area, inv and maj analogs, summed path by path."""
    stats = [path_stats(d) for d in enumerate_paths(n)]

    def total(key):
        return BiPoly(Counter(map(key, stats)))
    return (total(lambda s: (s.area, s.bounce)), total(lambda s: (s.area, 0)),
            total(lambda s: (s.inv, 0)), total(lambda s: (s.maj, 0)))


def _word_counts(n):
    """Oracle for qt._join_counts, from the definitions and nothing of
    dyckposet.paths: the count of each (area, bounce) and of each maj over
    the N/E words with n norths whose prefixes never hold more easts than
    norths."""
    pairs, majs = Counter(), Counter()
    for norths in combinations(range(2 * n), n):
        word = ["E"] * (2 * n)
        for i in norths:
            word[i] = "N"
        if min(accumulate(1 if s == "N" else -1 for s in word),
               default=0) < 0:
            continue
        # area: the north step from (x, y) leaves y - x full cells between
        # the path and the diagonal in row y
        area = x = y = 0
        tops = []  # tops[x]: the height of the east step from column x
        for step in word:
            if step == "N":
                area += y - x
                y += 1
            else:
                tops.append(y)
                x += 1
        # bounce path from (0, 0): north until an east step of the path
        # starts, east to the diagonal, again; each touch (j, j) adds n - j
        bounce = j = 0
        while j < n:
            j = tops[j]
            bounce += n - j
        pairs[area, bounce] += 1
        majs[sum(i for i in range(1, 2 * n)
                 if word[i - 1] == "E" and word[i] == "N")] += 1
    return pairs, majs


def _refuse_paths(monkeypatch):
    """Make qt's bindings of enumerate_paths and _halves raise."""
    def refuse(n):
        raise AssertionError(f"paths of order {n} enumerated")
    monkeypatch.setattr(qt, "enumerate_paths", refuse)
    monkeypatch.setattr(qt, "_halves", refuse)


QT_TABLE = {
    0: {(0, 0): 1},
    1: {(0, 0): 1},
    2: {(1, 0): 1, (0, 1): 1},
    3: {(3, 0): 1, (2, 1): 1, (1, 2): 1, (1, 1): 1, (0, 3): 1},
    4: {(6, 0): 1, (5, 1): 1, (4, 1): 1, (4, 2): 1, (3, 1): 1, (3, 2): 1,
        (3, 3): 1, (2, 2): 1, (2, 3): 1, (2, 4): 1, (1, 3): 1, (1, 4): 1,
        (1, 5): 1, (0, 6): 1},
    5: {(10, 0): 1, (9, 1): 1, (8, 1): 1, (8, 2): 1, (7, 1): 1, (7, 2): 1,
        (7, 3): 1, (6, 1): 1, (6, 2): 2, (6, 3): 1, (6, 4): 1, (5, 2): 1,
        (5, 3): 2, (5, 4): 1, (5, 5): 1, (4, 2): 1, (4, 3): 2, (4, 4): 2,
        (4, 5): 1, (4, 6): 1, (3, 3): 1, (3, 4): 2, (3, 5): 2, (3, 6): 1,
        (3, 7): 1, (2, 4): 1, (2, 5): 1, (2, 6): 2, (2, 7): 1, (2, 8): 1,
        (1, 6): 1, (1, 7): 1, (1, 8): 1, (1, 9): 1, (0, 10): 1},
}


class TestQBasics:
    def test_q_int_and_factorial(self):
        assert _q_int(4)(1) == 4
        assert _q_factorial(4)(1) == 24
        assert _q_int(0) == UniPoly()

    def test_q_binomial_values(self):
        assert q_binomial(4, 2) == UniPoly.from_list([1, 1, 2, 1, 1])
        for n in range(7):
            for k in range(n + 1):
                assert q_binomial(n, k)(1) == comb(n, k)

    def test_q_binomial_symmetry(self):
        for n in range(7):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)

    def test_q_binomial_rejects_bad_args(self):
        with pytest.raises(ValueError):
            q_binomial(2, 3)


class TestQAnalogs:
    def test_order_three_values(self):
        assert cn_area(3) == _bipoly(
            {(0, 0): 1, (1, 0): 2, (2, 0): 1, (3, 0): 1})
        assert cn_inv(3) == _bipoly(
            {(0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1})
        assert cn_maj(3) == _bipoly(
            {(0, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1, (6, 0): 1})

    def test_specialize_to_counts(self):
        for n in range(7):
            assert cn_area(n)(1, 1) == catalan_closed(n)
            assert cn_inv(n)(1, 1) == catalan_closed(n)
            assert cn_maj(n)(1, 1) == catalan_closed(n)

    def test_inv_is_area_reversed(self):
        for n in range(6):
            top = comb(n, 2)
            area = cn_area(n)
            assert cn_inv(n) == BiPoly(
                {(top - qe, 0): c for (qe, _), c in area.coeffs.items()})


class TestQtCatalan:
    @pytest.mark.parametrize("n", range(6))
    def test_table_values(self, n):
        assert qt_catalan(n) == _bipoly(QT_TABLE[n])

    def test_symmetry(self):
        for n in range(7):
            assert symmetry_check(n)

    def test_specializations(self):
        for n in range(7):
            assert qt_specialize(n, "area") == cn_area(n)
            assert qt_specialize(n, "maj") == cn_maj(n)
            assert qt_specialize(n, "count") == catalan_closed(n)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            qt_specialize(2, "weight")

    def test_unknown_mode_rejected_before_any_path(self, monkeypatch):
        _refuse_paths(monkeypatch)
        with pytest.raises(ValueError, match="unknown specialization mode"):
            qt_specialize(4, "weight")

    def test_positive_coefficients(self):
        for n in range(7):
            assert all(c > 0 for c in qt_catalan(n).coeffs.values())
            assert qt_catalan(n)(1, 1) == catalan_closed(n)


class TestBounceRecurrence:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_the_path_sum(self, n):
        assert _bounce_recurrence(n, *_q_pascal(2 * n)) == qt_catalan(n)

    @pytest.mark.parametrize("n", sorted(QT_TABLE))
    def test_table_values(self, n):
        assert _bounce_recurrence(n, *_q_pascal(2 * n)) == \
            _bipoly(QT_TABLE[n])

    def test_q_pascal_rows_match_the_factorial_quotient(self):
        width, pascal = _q_pascal(16)
        assert len(pascal) == 17
        for m, row in enumerate(pascal):
            assert len(row) == m + 1
            for k, packed in enumerate(row):
                coeffs = _unpack(packed, width)
                assert len(coeffs) == k * (m - k) + 1
                assert UniPoly.from_list(coeffs) == q_binomial(m, k)

    @pytest.mark.parametrize("n", range(9))
    def test_one_pass_matches_the_separate_sums(self, n):
        # the (area, bounce) counts that qt_census, qt_catalan and cn_area
        # share, the t = 1 specialization that qt_census reads as the area
        # analog, and the maj sum that qt_census and cn_maj share
        poly, area, _inv, maj = _per_path_sums(n)
        pairs = BiPoly(qt._join_counts(n, _halves(n)))
        assert (pairs, pairs.substitute_t_one(), _maj_poly(n)) == \
            (poly, area, maj)

    @pytest.mark.parametrize("n", range(9))
    def test_joins_match_the_word_oracle(self, n):
        # the joins and the per-path sums share paths._sweep; the words are
        # listed and read without it
        pairs, majs = _word_counts(n)
        assert (qt._join_counts(n, _halves(n)), _maj_poly(n)) == \
            (pairs, BiPoly({(m, 0): c for m, c in majs.items()}))

    # past the cap of 8: the widths are set by bounds that grow with n
    @pytest.mark.parametrize("n", range(11))
    def test_packed_routes_match_the_oracles(self, n, monkeypatch):
        monkeypatch.setitem(MAX_ORDER, "paths", 10)
        width, pascal = _q_pascal(2 * n)
        lists = _q_pascal_oracle(2 * n)
        assert [[list(_unpack(packed, width)) for packed in row]
                for row in pascal] == lists
        for shift in (_area_shift, _inv_shift):
            assert _carlitz(n, shift) == _carlitz_oracle(n, shift)
        assert _bounce_recurrence(n, width, pascal) == _bounce_oracle(n, lists)
        assert _maj_poly(n) == BiPoly({
            (e, 0): c for e, c in divide_exact(
                q_binomial(2 * n, n), _q_int(n + 1)).coeffs.items()})

    def test_every_packed_coefficient_leaves_a_spare_bit(self, monkeypatch):
        # each width is its bound's bit length and one spare bit: at n = 10
        # every coefficient a route unpacks, and every q-binomial, stays
        # below 2^(B - 1).  A route's sums and products have nonnegative
        # coefficients, none above its result's
        monkeypatch.setitem(MAX_ORDER, "paths", 10)
        unpacked = []

        def recording(packed, width):
            coeffs = _unpack(packed, width)
            unpacked.append((width, coeffs))
            return coeffs
        monkeypatch.setattr(qt, "_unpack", recording)
        census = qt_census(10)
        assert census.count == catalan_closed(10)
        width, pascal = _q_pascal(20)
        unpacked += [(width, _unpack(packed, width))
                     for row in pascal for packed in row]
        # the two Carlitz routes, the bounce recurrence by t power and by
        # q power within each, both sides of the maj identity and the maj
        # sum, and the q-Pascal table
        assert len(unpacked) > 2 + 1 + comb(10, 2) + 3
        assert all(0 <= c < 1 << width - 1
                   for width, coeffs in unpacked for c in coeffs)


class TestCensus:
    @pytest.mark.parametrize("n", range(9))
    def test_fields_match_the_per_path_sums(self, n):
        census = qt_census(n)
        assert (census.poly, census.area, census.inv, census.maj) == \
            _per_path_sums(n)
        assert census.count == catalan_closed(n)

    def test_inv_analog_enumerates_no_path(self, monkeypatch):
        _refuse_paths(monkeypatch)
        assert cn_inv(6)(1, 1) == catalan_closed(6)


# Fraction oracles: the partition sum cell by cell, as written before the
# integer kernel


def _oracle_term(partition, q0, t0):
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
        denominator *= (q0 ** s.arm - t0 ** (s.leg + 1)) \
            * (t0 ** s.leg - q0 ** (s.arm + 1))
    return numerator / denominator


def _oracle_pole_free(n, q0, t0):
    return all(q0 ** s.arm != t0 ** (s.leg + 1)
               and t0 ** s.leg != q0 ** (s.arm + 1)
               for mu in _partitions(n) for s in cell_stats(mu).values())


def _oracle_sum(n, q0, t0):
    if n == 0:
        return Fraction(1)
    return sum((_oracle_term(mu, q0, t0) for mu in _partitions(n)),
               Fraction(0))


_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


class TestPartitionSum:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_path_statistics_at_rational_points(self, n):
        poly = qt_catalan(n)
        for q0, t0 in gh_sample_points(n, 25):
            assert gh_evaluate(n, q0, t0) == poly.evaluate_exact(q0, t0)

    @pytest.mark.parametrize("n", range(9))
    def test_integer_kernel_matches_the_oracle(self, n):
        for q0, t0 in gh_sample_points(n, 25):
            assert gh_evaluate(n, q0, t0) == _oracle_sum(n, q0, t0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), _rationals, _rationals)
    def test_integer_kernel_matches_the_oracle_anywhere(self, n, q0, t0):
        # 0 and +-1 are drawn too; poles must be exactly the oracle's
        pole_free = _oracle_pole_free(n, q0, t0)
        assert gh_pole_check(n, q0, t0) == pole_free
        if pole_free or n == 0:
            assert gh_evaluate(n, q0, t0) == _oracle_sum(n, q0, t0)
        else:
            with pytest.raises(PoleError,
                               match=rf"^\({q0}, {t0}\) is a pole for n = {n}$"):
                gh_evaluate(n, q0, t0)

    def test_pole_check_matches_the_oracle_on_a_grid(self):
        grid = sorted({Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3)})
        for n in range(1, 6):
            for q0 in grid:
                for t0 in grid:
                    assert gh_pole_check(n, q0, t0) == \
                        _oracle_pole_free(n, q0, t0)

    def test_one_term_call_per_partition(self, monkeypatch):
        # the benchmark tracer counts qt.gh_partitions by wrapping the
        # module-global _gh_term
        calls = []
        term = qt._gh_term

        def counted(*args):
            calls.append(args)
            return term(*args)
        monkeypatch.setattr(qt, "_gh_term", counted)
        for n in range(1, 8):
            calls.clear()
            gh_evaluate(n, Fraction(2, 3), Fraction(-5, 7))
            assert len(calls) == len(_partitions(n))

    def test_check_point_is_admissible_and_not_degenerate(self):
        q0, t0 = GH_CHECK_POINT
        assert not {q0, t0} & {0, 1, -1}
        for n in range(12):
            assert gh_pole_check(n, q0, t0)

    def test_pole_detected(self):
        # q = t makes the factor q^a - t^{l+1} vanish on single-row cells
        assert not gh_pole_check(2, Fraction(2), Fraction(2))
        with pytest.raises(PoleError):
            gh_evaluate(2, Fraction(2), Fraction(2))

    def test_sample_points_reproducible(self):
        assert gh_sample_points(3, 5) == gh_sample_points(3, 5)

    def test_sample_points_avoid_0_and_1(self):
        for n in range(9):
            for point in gh_sample_points(n, 25):
                assert not set(point) & {0, 1, -1}

    def test_symmetry_at_points(self):
        for q0, t0 in gh_sample_points(3, 5):
            assert gh_evaluate(3, q0, t0) == gh_evaluate(3, t0, q0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=5))
def test_qt_degree_bound(n):
    poly = qt_catalan(n)
    for (qe, te), _c in poly.coeffs.items():
        assert qe + te <= comb(n, 2)
        assert qe >= 0 and te >= 0


class TestEvaluateExact:
    POINTS = [(Fraction(2, 3), Fraction(-5, 7)), (Fraction(0), Fraction(3, 4)),
              (Fraction(-9, 2), Fraction(0)), (Fraction(0), Fraction(0)),
              (Fraction(1), Fraction(-1)), (Fraction(7), Fraction(1, 9))]

    @pytest.mark.parametrize("poly", [
        BiPoly(), BiPoly.one(), BiPoly({(0, 0): -4}),
        BiPoly({(3, 0): 2, (0, 2): -1}), BiPoly({(2, 5): 3, (1, 1): -7}),
        qt_catalan(5)], ids=repr)
    def test_matches_the_generic_call(self, poly):
        for q0, t0 in self.POINTS:
            value = poly.evaluate_exact(q0, t0)
            assert type(value) is Fraction
            assert value == poly(q0, t0)

    def test_zero_polynomial_is_fraction_zero(self):
        value = BiPoly().evaluate_exact(Fraction(1, 2), Fraction(3))
        assert type(value) is Fraction and value == 0

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                           st.integers(-5, 5), max_size=8),
           _rationals, _rationals)
    def test_matches_the_generic_call_anywhere(self, coeffs, q0, t0):
        poly = BiPoly(coeffs)
        assert poly.evaluate_exact(q0, t0) == poly(q0, t0)
