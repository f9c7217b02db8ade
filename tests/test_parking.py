import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dyckposet import (DyckPath, LabelledDyckPath, LimitExceededError,
                       ParkingFunction, area_from_parking, build_poset,
                       count_parking_by_filter, count_parking_functions,
                       enumerate_labelled_paths, enumerate_parking_functions,
                       enumerate_paths, is_parking_function,
                       labelled_to_parking, parking_census,
                       parking_to_labelled, vectors_of)
from dyckposet.parking import _increasing_fillings, _labellings
from dyckposet.paths import _halves


def _parks_by_simulation(prefs):
    """Oracle: drive the cars; car i takes the first free spot >= prefs[i]."""
    n = len(prefs)
    taken = [False] * n
    for p in prefs:
        spot = p - 1
        while spot < n and taken[spot]:
            spot += 1
        if spot == n:
            return False
        taken[spot] = True
    return True


def _labelled_by_filtering(n):
    """Oracle: try every permutation on every path and keep those the
    validating constructor accepts."""
    results = []
    for d in enumerate_paths(n):
        for perm in itertools.permutations(range(1, n + 1)):
            try:
                results.append(LabelledDyckPath(path=d, labels=perm))
            except ValueError:
                continue
    return results


def _fillings_by_rescan(runs, labels):
    """Oracle: every run, the last one too, picks a block of the unused
    labels and rescans them for the next run."""
    fillings = [((), labels)]
    for size in runs:
        fillings = [(head + block, tuple(x for x in rest if x not in block))
                    for head, rest in fillings
                    for block in itertools.combinations(rest, size)]
    return [head for head, _rest in fillings]


def labelled_from_vectors(g, p):
    """Oracle: the labelled path determined by its area and label
    vectors."""
    offsets = tuple(i - gi for i, gi in enumerate(g))
    return LabelledDyckPath(path=DyckPath.from_north_offsets(offsets),
                            labels=tuple(p))


def vector_conditions_ok(g, p):
    """Oracle: the six admissibility conditions for an (area, label)
    vector pair."""
    n = len(g)
    if len(p) != n:
        return False
    if n == 0:
        return True
    if g[0] != 0:
        return False
    if any(gi < 0 for gi in g):
        return False
    if any(g[i + 1] > g[i] + 1 for i in range(n - 1)):
        return False
    if sorted(p) != list(range(1, n + 1)):
        return False
    if any(g[i + 1] == g[i] + 1 and p[i] >= p[i + 1] for i in range(n - 1)):
        return False
    return True


def _representatives(n):
    """One column label vector per content group (path): the columns of
    its north steps, bottom to top, as the labelling 1..n reads them."""
    labels = range(1, n + 1)
    return [LabelledDyckPath(d, labels).columns() for d in enumerate_paths(n)]


def representative_leq(rep_low, rep_high):
    """Oracle: rep_high's path lies above rep_low's iff componentwise
    high <= low."""
    return all(h <= l for h, l in zip(rep_high, rep_low))


def representative_path(rep):
    return DyckPath.from_north_offsets(tuple(c - 1 for c in rep))


def _compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first, *rest)


def _column_runs(d):
    return [len(list(rows)) for _col, rows in
            itertools.groupby(d.north_offsets())]


class TestParkingFunctions:
    def test_criterion_matches_simulation(self):
        for n in range(1, 5):
            for prefs in itertools.product(range(1, n + 1), repeat=n):
                assert is_parking_function(prefs) == \
                    _parks_by_simulation(prefs)

    def test_counts(self):
        assert [count_parking_functions(n) for n in range(6)] == \
            [1, 1, 3, 16, 125, 1296]

    def test_enumeration_matches_closed_form(self):
        for n in range(6):
            assert len(enumerate_parking_functions(n)) == \
                count_parking_functions(n)

    @pytest.mark.parametrize("n", range(7))
    def test_filter_count_matches_the_enumeration(self, n):
        assert count_parking_by_filter(n) == \
            len(enumerate_parking_functions(n)) == (n + 1) ** (n - 1) \
            == count_parking_functions(n)

    def test_filter_count_builds_no_parking_function(self, monkeypatch):
        def refuse(cls, prefs):
            raise AssertionError("parking function built")
        monkeypatch.setattr(ParkingFunction, "__new__", refuse)
        assert count_parking_by_filter(6) == 16_807

    @pytest.mark.parametrize("n", [7, 8])
    def test_filter_count_past_the_cap(self, n):
        # the filter builds no object, so it runs in milliseconds up to the
        # paths cap
        assert count_parking_by_filter(n) == count_parking_functions(n)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            is_parking_function((1, 4, 2))
        with pytest.raises(ValueError):
            ParkingFunction((0, 1))

    def test_non_parking_rejected(self):
        with pytest.raises(ValueError):
            ParkingFunction((2, 2))

    def test_enumeration_gate(self):
        with pytest.raises(LimitExceededError):
            enumerate_parking_functions(9)
        with pytest.raises(LimitExceededError):
            count_parking_by_filter(9)


class TestBijection:
    def test_roundtrip_exhaustive(self):
        for n in range(5):
            for f in enumerate_parking_functions(n):
                labelled = parking_to_labelled(f)
                assert labelled_to_parking(labelled) == f

    def test_roundtrip_other_direction(self):
        for n in range(5):
            for labelled in enumerate_labelled_paths(n):
                assert parking_to_labelled(
                    labelled_to_parking(labelled)) == labelled

    def test_labelled_count_matches(self):
        for n in range(6):
            assert len(enumerate_labelled_paths(n)) == \
                count_parking_functions(n)

    def test_area_transfer(self):
        for n in range(6):
            for f in enumerate_parking_functions(n):
                assert area_from_parking(f) == \
                    parking_to_labelled(f).path.area

    def test_labelled_paths_equal_the_permutation_filter(self):
        for n in range(6):
            assert enumerate_labelled_paths(n) == _labelled_by_filtering(n)

    @pytest.mark.parametrize("n", range(7))
    def test_fillings_equal_the_rescan(self, n):
        labels = tuple(range(1, n + 1))
        for runs in _compositions(n):
            assert _increasing_fillings(runs, labels) == \
                _fillings_by_rescan(runs, labels)

    def test_labellings_per_path_are_multinomial(self):
        # parking_census counts a path's labellings off its north offsets
        for n in range(7):
            per_path = Counter(lp.path for lp in enumerate_labelled_paths(n))
            for d in enumerate_paths(n):
                assert per_path[d] == _labellings(d.north_offsets()) == \
                    math.factorial(n) // math.prod(
                        map(math.factorial, _column_runs(d)))

    def test_a_column_may_straddle_the_join(self):
        # NENN | NEEE: the three north steps of column 2 begin in the
        # first half and end in the second
        head, tail = (0, 1, 1), (1,)
        firsts, seconds = _halves(4)
        assert head in firsts and tail in seconds[len(head)]
        assert _labellings(head + tail) == 4 == \
            math.factorial(4) // (math.factorial(1) * math.factorial(3))
        assert Counter(lp.path for lp in enumerate_labelled_paths(4))[
            DyckPath("NENNNEEE")] == 4

    def test_each_labelled_path_is_validated_once(self, monkeypatch):
        calls = 0
        validate = LabelledDyckPath.__new__

        def counted(cls, path, labels):
            nonlocal calls
            calls += 1
            return validate(cls, path, labels)

        monkeypatch.setattr(LabelledDyckPath, "__new__", counted)
        labelled = enumerate_labelled_paths(6)
        assert calls == len(labelled) == count_parking_functions(6) == 16_807

    @pytest.mark.parametrize("n", range(7))
    def test_labelled_count_matches_the_enumeration(self, n):
        assert parking_census(n).count == len(enumerate_labelled_paths(n))

    def test_labelled_count_builds_no_labelled_path(self, monkeypatch):
        def refuse(cls, path, labels):
            raise AssertionError("labelled path built")
        monkeypatch.setattr(LabelledDyckPath, "__new__", refuse)
        assert parking_census(6).count == 16_807

    def test_labelled_count_gate(self):
        with pytest.raises(LimitExceededError):
            enumerate_labelled_paths(9)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            LabelledDyckPath(DyckPath("NNEE"), (2, 1))
        with pytest.raises(ValueError):
            LabelledDyckPath(DyckPath("NENE"), (1, 1))


class TestVectors:
    def test_worked_example(self):
        # five cars with preferences (2, 2, 4, 2, 1)
        f = ParkingFunction((2, 2, 4, 2, 1))
        labelled = parking_to_labelled(f)
        pair, columns = vectors_of(labelled)
        assert pair.g == (0, 0, 1, 2, 1)
        assert pair.p == (5, 1, 2, 4, 3)
        assert columns == (2, 2, 4, 2, 1)
        assert labelled_from_vectors(pair.g, pair.p) == labelled

    def test_conditions_characterize_valid_pairs(self):
        for n in range(5):
            valid = set()
            for labelled in enumerate_labelled_paths(n):
                pair, _cols = vectors_of(labelled)
                assert vector_conditions_ok(pair.g, pair.p)
                valid.add((pair.g, pair.p))
            # and conversely: every admissible pair comes from a labelled path
            count = 0
            for g in itertools.product(range(n), repeat=n):
                for p in itertools.permutations(range(1, n + 1)):
                    if vector_conditions_ok(g, p):
                        count += 1
                        assert (g, p) in valid
            if n > 0:
                assert count == len(valid)

    def test_vector_roundtrip(self):
        for n in range(5):
            for labelled in enumerate_labelled_paths(n):
                pair, _ = vectors_of(labelled)
                assert labelled_from_vectors(pair.g, pair.p) == labelled


class TestCensus:
    @pytest.mark.parametrize("n", range(7))
    def test_matches_the_oracles(self, n):
        census = parking_census(n)
        labelled = enumerate_labelled_paths(n)
        assert census.count == count_parking_functions(n) == len(labelled)
        assert census.groups == len({lp.columns() for lp in labelled}) \
            == len(enumerate_paths(n))

    def test_census_gate(self):
        with pytest.raises(LimitExceededError):
            parking_census(9)


class TestContentGroups:
    def test_one_group_per_path(self):
        for n in range(6):
            reps = _representatives(n)
            assert len(reps) == len(set(reps)) == build_poset(n).size

    def test_representative_order_matches_poset(self):
        for n in range(6):
            p = build_poset(n)
            reps = _representatives(n)
            paths = [representative_path(r) for r in reps]
            idx = {path: i for i, path in enumerate(paths)}
            for a, ra in zip(paths, reps):
                for b, rb in zip(paths, reps):
                    assert p.leq(idx[a], idx[b]) == representative_leq(ra, rb)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(*[st.integers(1, n)] * n)))
def test_criterion_always_matches_simulation(prefs):
    assert is_parking_function(prefs) == _parks_by_simulation(prefs)
