from functools import partial
from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from dyckposet import (GH_CHECK_POINT, DyckPath, LimitExceededError,
                       Partition, build_poset, catalan_closed, catalan_count,
                       catalan_recurrence, cell_stats, check_order, cn_area,
                       cn_maj, count_bad_paths, count_parking_functions,
                       enumerate_paths, gh_evaluate, gh_pole_check,
                       gh_sample_points, parking_census, path_stats,
                       path_to_partition, qt_catalan, qt_census)
from oracles import is_below

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def _monotone_words(n):
    """Every word with n norths and n easts, diagonal-crossing or not."""
    words = [""]
    for _ in range(2 * n):
        words = [w + s for w in words for s in "NE"]
    return [w for w in words if w.count("N") == n]


def _dips_below(word):
    height = 0
    for mark in word:
        height += 1 if mark == "N" else -1
        if height < 0:
            return True
    return False


def _walk(word):
    """Oracle: column heights, north offsets and area by walking the word."""
    heights, offsets = [], []
    norths = easts = 0
    for mark in word:
        if mark == "N":
            offsets.append(easts)
            norths += 1
        else:
            heights.append(norths)
            easts += 1
    area = sum(h - j for j, h in enumerate(heights, start=1))
    return tuple(heights), tuple(offsets), area


def _canonical_words(n):
    """Oracle: every N/E word of length 2n that DyckPath accepts, sorted by
    area, then lexicographically with N before E."""
    lex = str.maketrans("NE", "01")
    accepted = []
    for marks in product("NE", repeat=2 * n):
        try:
            accepted.append(DyckPath("".join(marks)))
        except ValueError:
            continue
    accepted.sort(key=lambda d: (d.area, d.steps.translate(lex)))
    return [d.steps for d in accepted]


class TestCatalanCounts:
    @pytest.mark.parametrize("n", range(9))
    def test_three_routes_agree(self, n):
        assert catalan_closed(n) == CATALAN[n]
        assert catalan_recurrence(n) == CATALAN[n]
        assert len(enumerate_paths(n)) == CATALAN[n]
        assert catalan_count(n) == CATALAN[n]

    def test_recurrence_has_no_recursion_depth(self):
        # a recursive recurrence overflows the stack near n = 333
        assert catalan_recurrence(1000) == catalan_closed(1000)

    def test_enumeration_refuses_past_limit(self):
        with pytest.raises(LimitExceededError):
            enumerate_paths(9)

    @pytest.mark.parametrize("compute", [
        check_order, enumerate_paths, build_poset, qt_catalan, cn_area,
        cn_maj, qt_census, parking_census, catalan_recurrence, catalan_closed,
        count_parking_functions,
        partial(gh_evaluate, q0=GH_CHECK_POINT[0], t0=GH_CHECK_POINT[1]),
        partial(gh_pole_check, q0=GH_CHECK_POINT[0], t0=GH_CHECK_POINT[1]),
        partial(gh_sample_points, count=2), Partition.staircase,
    ], ids=lambda compute: getattr(compute, "func", compute).__qualname__)
    def test_negative_order_refused(self, compute):
        with pytest.raises(ValueError):
            compute(-1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_bad_path_count_against_exhaustion(self, n):
        # oracle: filter every monotone word for a diagonal crossing
        bad = sum(1 for w in _monotone_words(n) if _dips_below(w))
        assert count_bad_paths(n) == bad
        assert bad == comb(2 * n, n) - catalan_closed(n)

    def test_bad_path_values(self):
        assert [count_bad_paths(n) for n in (1, 2, 3, 4)] == [1, 4, 15, 56]


class TestDyckPathValidation:
    def test_rejects_diagonal_crossing(self):
        with pytest.raises(ValueError):
            DyckPath("NEEN")

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            DyckPath("NNE")
        with pytest.raises(ValueError):
            DyckPath("NNNE")

    def test_rejects_bad_marks(self):
        with pytest.raises(ValueError):
            DyckPath("NS")

    @pytest.mark.parametrize("steps", [["N", "E"], ("N", "E"), b"NE"])
    def test_rejects_a_word_that_is_no_str(self, steps):
        # a list word used to build a path whose repr showed the list
        with pytest.raises(TypeError, match="must be a str"):
            DyckPath(steps)

    def test_offset_roundtrip(self):
        for d in enumerate_paths(4):
            assert DyckPath.from_north_offsets(d.north_offsets()) == d

    @pytest.mark.parametrize("word, message", [
        ("NNE", "even length"),
        ("NS", "invalid step mark"),
        ("NEEN", "below the diagonal"),
        ("NNNE", "unbalanced"),
    ])
    def test_each_fault_keeps_its_error(self, word, message):
        with pytest.raises(ValueError, match=message):
            DyckPath(word)


class TestStoredWalk:
    """The heights, offsets and area read off in the validating walk."""

    @pytest.mark.parametrize("n", range(9))
    def test_stored_values_equal_a_word_walk(self, n):
        for d in enumerate_paths(n):
            assert (d.column_heights(), d.north_offsets(), d.area) == \
                _walk(d.steps)

    def test_equality_and_hash_follow_the_steps(self):
        word = "NNENEE"
        a, b = DyckPath(word), DyckPath("".join(list(word)))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, DyckPath("NENNEE")}) == 2
        assert DyckPath("NNEE") != DyckPath("NENE")

    def test_repr_shows_the_steps_only(self):
        assert repr(DyckPath("NNEE")) == "DyckPath('NNEE')"
        assert repr(DyckPath("")) == "DyckPath('')"

    @pytest.mark.parametrize("d", [DyckPath("NNEE"),
                                   enumerate_paths(2)[1]])
    def test_slotted_and_frozen(self, d):
        with pytest.raises(AttributeError):
            d.area = 0
        assert d.area == 1
        assert not hasattr(d, "__dict__")


class TestStatistics:
    def test_staircase_and_full(self):
        for n in range(6):
            assert DyckPath("NE" * n).area == 0
            assert DyckPath("N" * n + "E" * n).area == comb(n, 2)

    def test_area_inv_complementary(self):
        for n in range(6):
            for d in enumerate_paths(n):
                s = path_stats(d)
                assert s.area + s.inv == comb(n, 2)

    def test_maj_example(self):
        # NNEENE: east-before-north occurs at segment index 4
        assert path_stats(DyckPath("NNEENE")).maj == 4

    def test_maj_matches_the_valley_definition(self):
        # maj sums the 1-based positions i with step i east, step i + 1 north
        for n in range(7):
            for d in enumerate_paths(n):
                w = d.steps
                assert path_stats(d).maj == sum(
                    i for i in range(1, 2 * n) if w[i - 1:i + 1] == "EN")

    def test_bounce_examples(self):
        assert path_stats(DyckPath("NENENE")).bounce == 3
        assert path_stats(DyckPath("NENNEENE")).bounce == 4
        assert path_stats(DyckPath("NNNNNEEEEE")).bounce == 0

    def test_bounce_distributes_like_area(self):
        # the bounce multiset equals the area multiset at every order
        for n in range(7):
            ds = enumerate_paths(n)
            assert sorted(path_stats(d).bounce for d in ds) == \
                sorted(d.area for d in ds)

    def test_area_vector_sums_to_area(self):
        for n in range(6):
            for d in enumerate_paths(n):
                s = path_stats(d)
                assert sum(s.area_vector) == s.area
                assert s.area_vector[:1] in ((), (0,))

    def test_canonical_order_is_area_ascending(self):
        for n in range(7):
            areas = [d.area for d in enumerate_paths(n)]
            assert areas == sorted(areas)

    @pytest.mark.parametrize("n", range(9))
    def test_canonical_order_breaks_area_ties_lexicographically(self, n):
        assert [d.steps for d in enumerate_paths(n)] == _canonical_words(n)


class TestPartitions:
    def test_path_to_partition_is_injective(self):
        # each path of order n gets its own diagram, of area inv(D), that
        # fits inside the staircase of order n
        for n in range(7):
            staircase = set(Partition.staircase(n).cells())
            path_list = enumerate_paths(n)
            parts = [path_to_partition(d) for d in path_list]
            assert len(set(parts)) == len(parts)
            for d, part in zip(path_list, parts):
                assert part.area == path_stats(d).inv
                assert set(part.cells()) <= staircase

    def test_conjugate_involution(self):
        for parts in [(), (1,), (3, 1), (4, 4, 2, 1), (5, 3, 3, 1)]:
            p = Partition(parts)
            assert p.conjugate().conjugate() == p
            assert p.conjugate().area == p.area

    def test_cell_stats_consistency(self):
        p = Partition((4, 2, 1))
        stats = cell_stats(p)
        assert len(stats) == p.area
        top_left = stats[(1, 1)]
        assert (top_left.arm, top_left.leg) == (3, 2)
        assert top_left.hook == 6
        assert (top_left.coarm, top_left.coleg) == (0, 0)


class TestOrderRelation:
    def test_staircase_below_all(self):
        for n in range(6):
            low = DyckPath("NE" * n)
            high = DyckPath("N" * n + "E" * n)
            for d in enumerate_paths(n):
                assert is_below(low, d)
                assert is_below(d, high)

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            is_below(DyckPath("NE"), DyckPath("NENE"))


@given(st.integers(min_value=0, max_value=30))
def test_catalan_routes_agree_generally(n):
    assert catalan_closed(n) == catalan_recurrence(n)


@given(st.lists(st.sampled_from("NE"), max_size=12))
def test_validation_accepts_exactly_balanced_nonnegative(marks):
    word = "".join(marks)
    balanced = word.count("N") == word.count("E")
    ok = balanced and not _dips_below(word)
    if ok:
        DyckPath(word)
    else:
        with pytest.raises(ValueError):
            DyckPath(word)
