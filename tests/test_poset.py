import json
import random
import sys
import tracemalloc
import types
from collections import Counter
from itertools import combinations
from math import comb, prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from dyckposet import (DyckPath, DyckPoset, LimitExceededError,
                       antichain_census, catalan_closed, chain_polynomial,
                       enumerate_paths, maximal_chains, min_antichain_cover,
                       min_chain_cover, mobius_matrix, order_ideal_count,
                       poset_census, rank_sizes)
from dyckposet import poset
from dyckposet.cli import EXIT_INTERNAL, EXIT_OK, main
from oracles import (antichain_extensions, chain_frame_by_sorting,
                     column_heights, covers, first_fit_chains, ideal_lattice,
                     is_below, list_chain_polynomial,
                     maximal_antichains_by_size, poset_by_probes,
                     poset_record, transpose)

ANTICHAIN_TOTALS = [2, 2, 3, 7, 42, 2361]
# k-element antichains of D_6 (A143673), as the antichain listing counted
# them
ANTICHAINS_6 = (1, 132, 4059, 54706, 390885, 1648100, 4380095, 7682096,
                9172750, 7585779, 4370731, 1749626, 481189, 89055, 10676,
                785, 38, 1)
MAXIMAL_TOTALS = [1, 1, 2, 4, 17, 379]
MAXIMUM_SIZE_COUNT = [(1, 1), (1, 1), (1, 2), (2, 1), (3, 6), (7, 2)]


def path_ideal(d):
    """Oracle: the order ideal of P_n formed by the area cells of the path,
    read column by column: (j, y) with j < y <= h_j."""
    mask = 0
    for j, h in enumerate(column_heights(d), start=1):
        for y in range(j + 1, h + 1):
            mask |= 1 << poset._cell_bit(d.order, j, y)
    return mask


class TestStructure:
    def test_sizes(self, posets):
        for n in range(6):
            assert posets(n).size == catalan_closed(n)

    def test_relation_matches_is_below(self, posets):
        for n in range(5):
            p = posets(n)
            path_list = enumerate_paths(n)
            for i, x in enumerate(path_list):
                for j, y in enumerate(path_list):
                    assert p.leq(i, j) == is_below(x, y) \
                        == bool(p.down[j] >> i & 1)

    def test_covers_match_definition(self, posets):
        # oracle: j covers i iff i < j with no strictly intermediate element
        for n in range(5):
            p = posets(n)
            for i in range(p.size):
                for j in range(p.size):
                    strict = i != j and p.leq(i, j)
                    between = any(k not in (i, j) and p.leq(i, k)
                                  and p.leq(k, j) for k in range(p.size))
                    assert covers(p, i, j) == (strict and not between)

    def test_graded_by_area(self, posets):
        # every cover step raises area by exactly one
        for n in range(6):
            p = posets(n)
            area = [d.area for d in enumerate_paths(n)]
            for i, j in p.cover_edges():
                assert area[j] == area[i] + 1
        # and, D_n being graded by area, the covers are exactly the
        # relations that raise the rank by one
        for n in range(8):
            p = posets(n)
            area = [d.area for d in enumerate_paths(n)]
            assert set(p.cover_edges()) == {
                (i, j) for i in range(p.size) for j in range(p.size)
                if area[j] == area[i] + 1 and p.leq(i, j)}

    @pytest.mark.parametrize("n", range(9))
    def test_cover_edges_and_rank_levels_closed_forms(self, posets, n):
        # the covers add one cell at a valley, C(2n-1, n-2) valleys in all;
        # the C(n, 2) + 1 rank levels are a minimum antichain cover
        p = posets(n)
        assert len(p.cover_edges()) == \
            (comb(2 * n - 1, n - 2) if n >= 2 else 0)
        assert min_antichain_cover(p) == comb(n, 2) + 1

    def test_each_element_stored_once(self):
        assert DyckPoset._fields == ("n", "ideals", "lower", "down")

    @pytest.mark.parametrize("n", range(9))
    def test_build_equals_the_cell_probes(self, posets, n):
        # the covers read off the peaks against a lookup of every cell of
        # P_n, and each set closed over them against the oracle's closure
        p, probed = posets(n), poset_by_probes(n)
        lower = [[] for _ in probed.ideals]
        for i, grown in enumerate(probed.cover_up):
            for j in poset._bits(grown):
                lower[j].append(i)
        assert p.ideals == probed.ideals
        assert p.down == probed.down
        assert p.lower == tuple(map(tuple, lower))
        assert p.cover_up == probed.cover_up

    def test_build_runs_fewer_lines_than_the_cell_probes(self, posets):
        # the build's own work at n = 8, the half sweep included: 75,256
        # Python lines.  It looks a mask up once per cover edge, 5,005
        # times; poset_by_probes, which probes every cell, looks up
        # 1,430 x 28 = 40,040 and runs 184,293 lines
        posets(8)
        lines = 0

        def count(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return count

        outer = sys.gettrace()
        sys.settrace(count)
        try:
            poset.build_poset(8)
        finally:
            sys.settrace(outer)
        assert lines < 77_000

    def test_elements_follow_the_path_order(self, posets):
        # element i is the i-th path of the canonical order
        for n in range(9):
            assert posets(n).ideals == \
                tuple(map(path_ideal, enumerate_paths(n)))

    def test_bounds(self, posets):
        for n in range(1, 6):
            p = posets(n)
            assert p.ideals[0] == path_ideal(DyckPath("NE" * n)) == 0
            assert p.ideals[-1] == path_ideal(DyckPath("N" * n + "E" * n)) \
                == (1 << comb(n, 2)) - 1


def _tuple_antichain_sizes(size, inc):
    # oracle: the same split, with each size polynomial a coefficient tuple
    memo = {0: (1,)}

    def count(cand):
        if cand not in memo:
            v = cand.bit_length() - 1
            rest = cand ^ (1 << v)
            without = count(rest)
            with_v = count(rest & inc[v])
            c = list(without) + [0] * (len(with_v) + 1 - len(without))
            for k, a in enumerate(with_v, start=1):
                c[k] += a
            memo[cand] = tuple(c)
        return memo[cand]

    return count((1 << size) - 1)


def downset_masks(size, down):
    """Oracle: every order ideal of a poset on elements 0..size-1, listed in
    a linear extension, as a bitmask; down[k] masks the down-set of k."""
    ideals = [0]
    for k in range(size):
        required = down[k] & ~(1 << k)
        ideals.extend([mask | 1 << k for mask in ideals
                       if required & ~mask == 0])
    return ideals


def _incomparable(p):
    full = (1 << p.size) - 1
    return [full & ~(up | down) for up, down in zip(transpose(p.down), p.down)]


def _antichain_masks(size, inc):
    """Oracle: every antichain, listed by a depth-first search, as a
    bitmask."""
    return [mask for mask, _extension in antichain_extensions(size, inc)]


def antichain_ideal_bijection_check(p):
    """Oracle: downward closure maps antichains bijectively onto order
    ideals: the closures are ideals, and as many as the antichains and the
    ideals.  The ideal count refuses an order past its limit before any
    antichain is listed."""
    ideals = order_ideal_count(p)
    antichains = _antichain_masks(p.size, _incomparable(p))
    closures = set()
    for mask in antichains:
        closure = 0
        for i in poset._bits(mask):
            closure |= p.down[i]
        closures.add(closure)
    return len(closures) == len(antichains) == ideals


def cell_down_masks(n):
    """Oracle: the down-set mask of each point of P_n, indexed by its bit;
    (j, y) lies above (j', y') iff j' >= j and y' <= y."""
    cells = [(j, y) for y in range(2, n + 1) for j in range(1, y)]
    down = [0] * len(cells)
    for j, y in cells:
        for a, b in cells:
            if a >= j and b <= y:
                down[poset._cell_bit(n, j, y)] |= 1 << poset._cell_bit(n, a, b)
    return tuple(down)


def jp_isomorphism_check(n):
    """Oracle: the path -> ideal map is an order isomorphism
    D_n -> J(P_n): the path masks are distinct, downward closed in P_n and
    as many as its ideals, and mask inclusion is the column-height
    order."""
    paths = enumerate_paths(n)
    down = cell_down_masks(n)
    masks = [path_ideal(d) for d in paths]
    return (len(set(masks)) == len(masks)
            == poset._ideal_count(len(down), down)
            and all(down[k] & ~m == 0 for m in masks
                    for k in poset._bits(m))
            and all((a & ~b == 0) == is_below(x, y)
                    for x, a in zip(paths, masks)
                    for y, b in zip(paths, masks)))


def mobius_direct(p, x, y):
    """Oracle: the Mobius value by Stanley's criterion on J(P_n):
    (-1)^|difference| when the ideal difference is an antichain of P_n,
    else 0."""
    if not p.leq(x, y):
        return 0
    diff = p.ideals[y] & ~p.ideals[x]
    down = cell_down_masks(p.n)
    if any(down[k] & diff != 1 << k for k in poset._bits(diff)):
        return 0
    return -1 if diff.bit_count() % 2 else 1


def _maximal_by_filter(size, inc):
    """Maximal antichains by size: the listed antichains that leave no
    element incomparable to all of their members."""
    by_size = {}
    for mask in _antichain_masks(size, inc):
        extension = (1 << size) - 1
        for i in poset._bits(mask):
            extension &= inc[i]
        if extension == 0:
            k = mask.bit_count()
            by_size[k] = by_size.get(k, 0) + 1
    return by_size


def _relabel(masks, order):
    # the same poset with element order[k] renamed k
    label = {v: k for k, v in enumerate(order)}
    return [sum(1 << label[j] for j in poset._bits(masks[v])) for v in order]


def _relabel_record(p, order):
    # the record that the splits read, element order[k] renamed k
    label = {v: k for k, v in enumerate(order)}
    return SimpleNamespace(
        size=p.size, down=tuple(_relabel(p.down, order)),
        lower=tuple(tuple(sorted(label[c] for c in p.lower[v]))
                    for v in order))


class TestPackedAntichainSizes:
    def test_matches_tuple_recursion(self, posets):
        for n in range(7):
            inc = _incomparable(posets(n))
            assert poset._antichain_sizes(posets(n)) == \
                _tuple_antichain_sizes(len(inc), inc)

    @pytest.mark.parametrize("shuffle", ["reversed", "random"])
    def test_labellings_that_are_not_linear_extensions(self, posets,
                                                       shuffle):
        # the split relabels along its chains, which need not follow a
        # linear extension; it must not rely on the labels it is given
        rng = random.Random(6)
        for n in range(7):
            inc = _incomparable(posets(n))
            order = list(reversed(range(len(inc))))
            if shuffle == "random":
                rng.shuffle(order)
            inc = _relabel(inc, order)
            assert poset._antichain_sizes(_relabel_record(posets(n), order)) \
                == _tuple_antichain_sizes(len(inc), inc)

    def test_first_fit_chains_bound_the_antichains(self, posets):
        # the blocks are chains partitioning the elements, and an antichain
        # takes at most one element of each
        for n in range(7):
            p = posets(n)
            chains = first_fit_chains(p)
            union = 0
            for chain in chains:
                assert chain & union == 0
                union |= chain
                for i, j in combinations(poset._bits(chain), 2):
                    assert p.leq(i, j)
            assert union == (1 << p.size) - 1
            assert prod(chain.bit_count() + 1 for chain in chains) >= \
                antichain_census(p).total

    @pytest.mark.parametrize("up, chains, sizes", [
        # twelve incomparable elements: twelve singleton chains, 2^12
        # antichains, C(12, k) of size k
        ([1 << i for i in range(12)], [1 << i for i in range(12)],
         tuple(comb(12, k) for k in range(13))),
        # a twelve-element chain: one block, 13 antichains
        ([4095 & -(1 << i) for i in range(12)], [4095], (1, 12)),
    ])
    def test_bound_is_reached(self, up, chains, sizes):
        p = poset_record(up)
        assert first_fit_chains(p) == chains
        assert poset._chain_frame(p) == chain_frame_by_sorting(p)
        assert prod(chain.bit_count() + 1 for chain in chains) == sum(sizes)
        assert poset._antichain_sizes(p) == sizes

    def test_chain_frame_equals_the_sorting_oracle(self, posets):
        # the one-pass frame against the sort-based construction: the same
        # chains, labels, below, inc and width
        for p in _frame_records(posets):
            assert poset._chain_frame(p) == chain_frame_by_sorting(p)

    def test_run_table_equals_the_slices_of_inc(self, posets):
        # runs[t][k] stands for the slice inc[t - k:t] that a split read at
        # each state, and row t holds one run per length, from 0 up to the
        # whole of label t - 1's chain up to t - 1
        for p in _frame_records(posets):
            _width, below, inc = poset._chain_frame(p)
            runs = poset._chain_runs(below, inc)
            assert len(runs) == len(below) == p.size + 1
            for t, row in enumerate(runs):
                first = below[t].bit_length()
                assert len(row) == t - first + 1
                assert below[first + 1:t + 1] == [below[t]] * (t - first)
                for k, run in enumerate(row):
                    assert run == tuple(inc[t - k:t])

    @pytest.mark.parametrize("split, top", [("_antichain_sizes", 6),
                                            ("_maximal_sizes", 5)])
    def test_each_chain_part_is_one_run_of_labels(self, posets, split, top):
        # the slice inc[top - |S & C|:top] reads the chain part S & C whole
        # only if it is one run of labels ending at the top label, in any
        # labelling of the input
        rng = random.Random(5)
        for n in range(top + 1):
            order = rng.sample(range(posets(n).size), posets(n).size)
            parts = _chain_parts(getattr(poset, split),
                                 _relabel_record(posets(n), order))
            assert len(parts) >= (n > 0) and all(map(_is_run, parts))

    def test_a_chain_labelled_off_its_order_breaks_a_run(self, posets,
                                                         monkeypatch):
        monkeypatch.setattr(poset, "_chain_frame",
                            _one_chain_by_label(poset._chain_frame))
        order = random.Random(5).sample(range(14), 14)
        parts = _chain_parts(poset._antichain_sizes,
                             _relabel_record(posets(4), order))
        assert not all(map(_is_run, parts))

    def test_every_packed_coefficient_leaves_a_spare_bit(self, posets):
        # the width is the chain bound's pack_width, and _unpack raises on
        # a set spare bit: both splits unpack for n <= 6 and on random
        # posets
        rng = random.Random(7)
        records = [posets(n) for n in range(7)] + [
            poset_record(_seeded_up_sets(rng, rng.randrange(13)))
            for _ in range(50)]
        for p in records:
            # the empty antichain; every poset has a maximal antichain
            assert poset._antichain_sizes(p)[0] == 1
            assert sum(poset._maximal_sizes(p)) >= 1

    # one width from the range that sets a spare bit at n = 6: 2-24 bits
    # for the antichain split and 2-17 for the maximal split, against 53
    # from pack_width
    @pytest.mark.parametrize("split, width", [
        ("_antichain_sizes", 24), ("_maximal_sizes", 17)])
    def test_a_narrowed_width_raises(self, posets, monkeypatch, split,
                                     width):
        monkeypatch.setattr(poset, "pack_width", lambda bound: width)
        with pytest.raises(ValueError, match="spare bit"):
            getattr(poset, split)(posets(6))


def _frame_records(posets):
    """The records the chain frame is checked on: D_0..D_7, D_n for
    n <= 6 in a random labelling, and 50 random posets."""
    rng = random.Random(8)
    records = [posets(n) for n in range(8)]
    for n in range(7):
        order = rng.sample(range(posets(n).size), posets(n).size)
        records.append(_relabel_record(posets(n), order))
    return records + [poset_record(_seeded_up_sets(rng, rng.randrange(13)))
                      for _ in range(50)]


def _is_run(mask):
    # one contiguous run of set bits
    return mask > 0 and (mask + (mask & -mask)) & mask == 0


def _count_code(split):
    """The code of the inner count of a split: a constant of the split's
    own code, and the f_code of every frame that count runs in."""
    (code,) = [const for const in split.__code__.co_consts
               if isinstance(const, types.CodeType)
               and const.co_name == "count"]
    return code


def _chain_parts(split, p):
    """The chain part S & C of each state that split enters on p, read from
    its count's locals as each call returns."""
    parts = []
    code = _count_code(split)

    def profile(frame, event, _arg):
        if (event == "return" and frame.f_code is code
                and "part" in frame.f_locals):
            parts.append(frame.f_locals["part"])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        split(p)
    finally:
        sys.setprofile(previous)
    return parts


def _one_chain_by_label(frame):
    """A mutant of poset._chain_frame: the first chain whose given labels
    run neither along it nor against it is labelled in the order of those
    labels, not along the chain."""
    def mutant(p):
        width, below, inc = frame(p)
        start = 0
        for chain in reversed(first_fit_chains(p)):
            along = sorted(poset._bits(chain),
                           key=lambda v: -p.down[v].bit_count())
            by_label = sorted(range(len(along)), key=lambda k: -along[k])
            if by_label not in (sorted(by_label), sorted(by_label)[::-1]):
                order = list(range(p.size))
                order[start:start + len(along)] = \
                    [start + k for k in by_label]
                return width, below, _relabel(inc, order)
            start += len(along)
        raise AssertionError("every chain runs along its labels")
    return mutant


def _seeded_up_sets(rng, size):
    """A random poset on size elements, each pair related with
    probability 1/2 and closed transitively, randomly relabelled."""
    up = [1 << i for i in range(size)]
    for i in reversed(range(size)):
        for j in range(i + 1, size):
            if rng.random() < 0.5:
                up[i] |= up[j]
    return _relabel(up, rng.sample(range(size), size))


class TestIdealsAndAntichains:
    def test_antichain_totals(self, posets):
        for n in range(6):
            assert antichain_census(posets(n)).total == ANTICHAIN_TOTALS[n]

    def test_order_ideals_refuse_past_limit(self, posets):
        with pytest.raises(LimitExceededError):
            order_ideal_count(posets(7))

    def test_bijection_check_refused_before_the_antichains(self, posets,
                                                           monkeypatch):
        def refuse(*args):
            raise AssertionError("antichains listed")
        monkeypatch.setitem(globals(), "antichain_extensions", refuse)
        with pytest.raises(LimitExceededError):
            antichain_ideal_bijection_check(posets(7))

    @pytest.mark.parametrize("n", range(6))
    def test_order_ideal_count_equals_the_listing(self, posets, n):
        p = posets(n)
        assert order_ideal_count(p) == len(downset_masks(p.size, p.down))

    @pytest.mark.parametrize("n", range(9))
    def test_ideal_count_of_the_point_poset(self, n):
        # D_n = J(P_n): P_n has C_n order ideals
        down = cell_down_masks(n)
        assert poset._ideal_count(len(down), down) == \
            len(downset_masks(len(down), down)) == catalan_closed(n)

    def test_ideal_count_at_order_six_without_listing(self, posets):
        # the count peaks near 11.2 MiB (94,012 memo states); listing the
        # 37,620,704 ideal masks takes about 2 GB
        p = posets(6)
        tracemalloc.start()
        try:
            count = poset._ideal_count(p.size, p.down)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == sum(ANTICHAINS_6)
        assert peak < 16 * 2**20

    def test_split_work_at_order_six(self, posets):
        # the calls of each split's inner count, memo hits included: each
        # split makes one per state, as it looks each child up before it
        # calls (the ideal split's 94,012 states and the antichain split's
        # 6,834, the empty set besides).  Both counts are exact, so a split
        # that does more work, such as one that calls on a memo hit
        # (188,023 and 25,627 calls), fails here at once
        p = posets(6)
        calls = Counter()

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_name == "count":
                calls[frame.f_code] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            poset._antichain_sizes(p)
            poset._ideal_count(p.size, p.down)
        finally:
            sys.setprofile(previous)
        assert calls == {_count_code(poset._antichain_sizes): 6_834,
                         _count_code(poset._ideal_count): 94_011}

    @pytest.mark.parametrize("n, states", [(5, 197), (6, 36_578)])
    def test_maximal_split_states(self, posets, n, states):
        # the distinct (candidates, hunt) states the maximal split enters
        # with a candidate left, each one memo entry.  Exact, so a split
        # that prunes less, such as one that enters dead states, fails
        # here at once
        p = posets(n)
        seen = set()
        code = _count_code(poset._maximal_sizes)

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code is code:
                cand, hunt = frame.f_locals["cand"], frame.f_locals["hunt"]
                if cand:
                    seen.add((cand, hunt))

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            poset._maximal_sizes(p)
        finally:
            sys.setprofile(previous)
        assert len(seen) == states

    def test_maximal_totals(self, posets):
        for n in range(6):
            census = antichain_census(posets(n), "maximal")
            assert census.total == MAXIMAL_TOTALS[n]

    @pytest.mark.parametrize("n", range(6))
    def test_maximal_by_size_matches_the_filter(self, posets, n):
        p = posets(n)
        assert antichain_census(p, "maximal").by_size == \
            _maximal_by_filter(p.size, _incomparable(p))

    def test_maximal_sizes_at_order_six_by_bron_kerbosch(self, posets):
        # every coefficient against a route that shares no code with the
        # split; the oracle takes under 2 s
        p = posets(6)
        inc = _incomparable(p)
        c = poset._maximal_sizes(p)
        assert {k: m for k, m in enumerate(c) if m} == \
            maximal_antichains_by_size(p.size, inc)
        assert len(c) == 18 and sum(c) == 526_913

    @pytest.mark.parametrize("n", range(7))
    def test_maximal_top_is_the_maximum_census(self, posets, n):
        # an antichain of the largest size is maximal, so the maximal
        # census ends where the maximum census reads
        p = posets(n)
        c = poset._maximal_sizes(p)
        census = antichain_census(p, "maximum")
        assert (len(c) - 1, c[-1]) == (census.width, census.total)

    def test_census_refused_past_its_limit_before_work(self, posets,
                                                        monkeypatch):
        def refuse(*args):
            raise AssertionError("antichains counted")
        monkeypatch.setattr(poset, "_maximal_sizes", refuse)
        monkeypatch.setattr(poset, "_antichain_sizes", refuse)
        for n, mode in ((6, "maximal"), (7, "all"), (7, "maximum")):
            with pytest.raises(LimitExceededError):
                antichain_census(posets(n), mode)

    def test_maximum_census(self, posets):
        for n in range(6):
            census = antichain_census(posets(n), "maximum")
            assert (census.width, census.total) == MAXIMUM_SIZE_COUNT[n]

    def test_antichains_by_brute_force(self, posets):
        # oracle: test all subsets for pairwise incomparability
        for n in range(5):
            p = posets(n)
            count = 0
            for size in range(p.size + 1):
                for sub in combinations(range(p.size), size):
                    if all(not p.leq(i, j) and not p.leq(j, i)
                           for i, j in combinations(sub, 2)):
                        count += 1
            assert count == antichain_census(p).total

    def test_memo_matches_enumeration(self, posets):
        for n in range(6):
            p = posets(n)
            by_size: dict[int, int] = {}
            for mask in _antichain_masks(p.size, _incomparable(p)):
                k = mask.bit_count()
                by_size[k] = by_size.get(k, 0) + 1
            assert antichain_census(p).by_size == by_size

    def test_order_six_without_enumeration(self, posets, monkeypatch):
        def refuse(*args):
            raise AssertionError("antichains enumerated")
        monkeypatch.setattr(poset, "_maximal_sizes", refuse)
        census = antichain_census(posets(6))
        assert census.by_size == dict(enumerate(ANTICHAINS_6))
        assert census.total == sum(ANTICHAINS_6) == 37_620_704
        census = antichain_census(posets(6), "maximum")
        assert (census.width, census.total) == (17, 1)

    def test_unknown_mode_refused_before_work(self, posets, monkeypatch):
        def refuse(*args):
            raise AssertionError("census computed")
        monkeypatch.setattr(poset, "_maximal_sizes", refuse)
        monkeypatch.setattr(poset, "_antichain_sizes", refuse)
        with pytest.raises(ValueError):
            antichain_census(posets(6), "bogus")

    @pytest.mark.parametrize("fault", ["width", 1, 2])
    def test_census_checks_must_agree(self, posets, monkeypatch, capsys,
                                      fault):
        if fault == "width":
            cover = poset.min_chain_cover
            monkeypatch.setattr(poset, "min_chain_cover",
                                lambda p: cover(p) + 1)
        else:
            sizes = poset._antichain_sizes

            def off_by_one(p):
                c = list(sizes(p))
                c[fault] += 1
                return tuple(c)
            monkeypatch.setattr(poset, "_antichain_sizes", off_by_one)
        for mode in ("all", "maximum"):
            with pytest.raises(AssertionError):
                antichain_census(posets(3), mode)
        assert main(["antichains", "--n", "3"]) == EXIT_INTERNAL
        assert capsys.readouterr().out == ""

    def test_ideal_count_equals_antichain_count(self, posets):
        for n in range(6):
            p = posets(n)
            assert len(downset_masks(p.size, p.down)) == \
                antichain_census(p).total

    def test_ideal_antichain_bijection(self, posets):
        for n in range(5):
            assert antichain_ideal_bijection_check(posets(n))

    def test_ideals_are_downward_closed(self, posets):
        p = posets(4)
        for ideal in downset_masks(p.size, p.down):
            for j in poset._bits(ideal):
                for i in range(p.size):
                    if p.leq(i, j):
                        assert ideal >> i & 1


class TestDilworth:
    def test_min_chain_cover_equals_width(self, posets):
        for n in range(7):
            p = posets(n)
            width = antichain_census(p, "maximum").width
            assert min_chain_cover(p) == width

    def test_poset_prints_the_checked_width(self, monkeypatch, capsys):
        # the census matches once and checks its width; poset prints it
        calls = []
        cover = poset.min_chain_cover
        monkeypatch.setattr(poset, "min_chain_cover",
                            lambda p: calls.append(p.n) or cover(p))
        assert main(["poset", "--n", "4"]) == EXIT_OK
        assert calls == [4]
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_chain_cover"] == payload["width"] == "3"

    def test_min_antichain_cover_equals_longest_chain(self, posets):
        for n in range(6):
            assert min_antichain_cover(posets(n)) == \
                (comb(n, 2) + 1 if n else 1)


class TestPointPosetIsomorphism:
    def test_isomorphism(self):
        for n in range(6):
            assert jp_isomorphism_check(n)

    def test_point_count(self):
        for n in range(7):
            assert len(cell_down_masks(n)) == comb(n, 2)

    def test_ideal_size_is_area(self):
        for n in range(6):
            for d in enumerate_paths(n):
                assert path_ideal(d).bit_count() == d.area

    @pytest.mark.parametrize("n", range(9))
    def test_ideal_equals_a_cell_by_cell_walk(self, n):
        # the area cells read row by row, (j, y) with e_y < j < y, as
        # build_poset's row masks read them, are the column oracle's
        for d in enumerate_paths(n):
            mask = 0
            for y, e in enumerate(d.north_offsets(), start=1):
                for j in range(e + 1, y):
                    mask |= 1 << poset._cell_bit(n, j, y)
            assert path_ideal(d) == mask

    def test_mobius_direct_matches_matrix(self, posets):
        for n in range(6):
            p = posets(n)
            mob = mobius_matrix(p)
            for i in range(p.size):
                for j in range(p.size):
                    assert mob.rows[i][j] == mobius_direct(p, i, j)

    def test_mobius_values_bounded(self, posets):
        mob = mobius_matrix(posets(5))
        assert {v for row in mob.rows for v in row} <= {-1, 0, 1}


# poset --n n at n = 0..5: rank sizes, order ideals, cover edges, width
# (the minimum chain cover) and minimum antichain cover
POSET_CENSUS = [((1,), 2, 0, 1, 1), ((1,), 2, 0, 1, 1), ((1, 1), 3, 1, 1, 2),
                ((1, 1, 2, 1), 7, 5, 2, 4),
                ((1, 1, 2, 3, 3, 3, 1), 42, 21, 3, 7),
                ((1, 1, 2, 3, 5, 5, 7, 7, 6, 4, 1), 2361, 84, 7, 11)]


class TestPosetCensus:
    @pytest.mark.parametrize("n", range(6))
    def test_fields(self, posets, n):
        census = poset_census(posets(n))
        assert (census.rank_sizes, census.order_ideals, census.cover_edges,
                census.width, census.antichain_cover) == POSET_CENSUS[n]

    def test_each_piece_of_work_runs_once(self, posets, monkeypatch):
        # the rank sizes feed both the census's width check and their own
        # check against the rank histogram, and the cover edges are listed
        # once, for the antichain cover; the edge count reads the cover
        # lists
        calls = Counter()

        def counted(owner, attr):
            function = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return function(*args, **kwargs)
            monkeypatch.setattr(owner, attr, wrapper)

        counted(poset, "rank_sizes")
        counted(DyckPoset, "cover_edges")
        assert poset_census(posets(5)) == POSET_CENSUS[5]
        assert calls == {"rank_sizes": 1, "cover_edges": 1}

    def test_refused_before_any_count(self, posets, monkeypatch):
        # the order ideal count and the antichains both stop at 6
        def refuse(p, mode="all"):
            raise AssertionError(f"order {p.n} counted")
        monkeypatch.setattr(poset, "antichain_census", refuse)
        monkeypatch.setattr(poset, "order_ideal_count", refuse)
        with pytest.raises(LimitExceededError):
            poset_census(posets(7))


class TestRankSizes:
    def test_against_enumeration(self):
        # oracle: histogram inv over all paths (decreasing rank = area order)
        for n in range(7):
            hist = [0] * (comb(n, 2) + 1)
            for d in enumerate_paths(n):
                hist[comb(n, 2) - d.area] += 1
            assert list(rank_sizes(n)) == hist

    def test_symmetric_total(self):
        for n in range(8):
            assert sum(rank_sizes(n)) == catalan_closed(n)


class TestMaximalChains:
    def test_counts(self, posets):
        expected = [1, 1, 1, 2, 16]
        for n in range(5):
            assert len(maximal_chains(posets(n))) == expected[n]

    def test_chains_are_saturated(self, posets):
        p = posets(4)
        for chain in maximal_chains(p):
            assert len(chain) == comb(4, 2) + 1
            for a, b in zip(chain, chain[1:]):
                assert covers(p, a, b)


def _triangular_up_sets(data, most):
    """A random upper-triangular relation on at most `most` elements,
    closed transitively into up-sets: the labels are a linear extension."""
    size = data.draw(st.integers(0, most))
    up = [1 << i for i in range(size)]
    for i in reversed(range(size)):
        for j in range(i + 1, size):
            if data.draw(st.booleans()):
                up[i] |= up[j]
    return up


def _random_up_sets(data):
    """A random poset on at most 12 elements, relabelled by a random
    permutation so that the labels need not be a linear extension."""
    up = _triangular_up_sets(data, 12)
    return _relabel(up, data.draw(st.permutations(range(len(up)))))


def _incomparable_masks(up):
    """The incomparability masks of the poset with up-sets up."""
    full = (1 << len(up)) - 1
    return [full & ~(u | d) for u, d in zip(up, transpose(up))]


def _antichain_sizes_by_subsets(up):
    """The incomparability masks of the poset with up-sets up, and
    c[k] = number of its k-element antichains, by testing every subset."""
    size = len(up)
    full = (1 << size) - 1
    inc = _incomparable_masks(up)
    counts = [0] * (size + 1)
    for sub in range(full + 1):
        if all(inc[i] >> j & 1 for i, j in combinations(poset._bits(sub), 2)):
            counts[sub.bit_count()] += 1
    while counts[-1] == 0:
        counts.pop()
    return inc, tuple(counts)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_antichain_sizes_by_brute_force(data):
    up = _random_up_sets(data)
    inc, counts = _antichain_sizes_by_subsets(up)
    assert poset._antichain_sizes(poset_record(up)) == counts


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_maximal_sizes_by_listing(data):
    # the split, against the antichains listed and filtered and against
    # Bron-Kerbosch, on random posets whose labels need not be a linear
    # extension
    up = _random_up_sets(data)
    inc = _incomparable_masks(up)
    sizes = poset._maximal_sizes(poset_record(up))
    by_size = {k: c for k, c in enumerate(sizes) if c}
    assert by_size == _maximal_by_filter(len(up), inc) == \
        maximal_antichains_by_size(len(up), inc)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_min_chain_cover_by_brute_force(data):
    # Dilworth: the fewest chains covering a poset number its largest
    # antichain, found here by testing every subset
    up = _random_up_sets(data)
    _inc, counts = _antichain_sizes_by_subsets(up)
    assert min_chain_cover(SimpleNamespace(size=len(up),
                                           down=transpose(up))) == \
        len(counts) - 1


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_ideal_count_by_listing(data):
    # the count on random posets given in a linear extension, against the
    # listing of their ideals
    up = _triangular_up_sets(data, 14)
    down = transpose(up)
    assert poset._ideal_count(len(up), down) == \
        len(downset_masks(len(up), down))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.data())
def test_interval_is_sublattice(n, data):
    # meets and joins exist: column-wise min/max of heights is again a path
    from dyckposet import build_poset
    p = build_poset(n)
    if p.size < 2:
        return
    i = data.draw(st.integers(0, p.size - 1))
    j = data.draw(st.integers(0, p.size - 1))
    path_list = enumerate_paths(n)
    hi = column_heights(path_list[i])
    hj = column_heights(path_list[j])
    meet = tuple(min(a, b) for a, b in zip(hi, hj))
    join = tuple(max(a, b) for a, b in zip(hi, hj))
    heights = {column_heights(e): k for k, e in enumerate(path_list)}
    assert meet in heights and join in heights
    m, jn = heights[meet], heights[join]
    assert p.leq(m, i) and p.leq(m, j)
    assert p.leq(i, jn) and p.leq(j, jn)


@pytest.mark.parametrize("n", range(7))
def test_ideal_lattice_of_the_point_poset_is_the_build(posets, n):
    # the oracle's J(P_n), grown from P_n alone, is D_n: the same ideals,
    # each with the same down-set read as ideals
    p, lattice = posets(n), ideal_lattice(cell_down_masks(n))
    index = {ideal: i for i, ideal in enumerate(p.ideals)}
    assert sorted(lattice.ideals) == sorted(p.ideals)
    for ideal, down in zip(lattice.ideals, lattice.down):
        assert {lattice.ideals[i] for i in poset._bits(down)} == \
            {p.ideals[i] for i in poset._bits(p.down[index[ideal]])}


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_splits_on_random_distributive_lattices(data):
    # J(P) of a random P on at most 8 points, grown by the oracle from P
    # alone: both antichain splits and the ideal count against the
    # antichains and ideals listed
    points = transpose(_triangular_up_sets(data, 8))
    lattice = ideal_lattice(points)
    assume(lattice.size <= 40)
    by_size, maximal = Counter(), Counter()
    for mask, extension in antichain_extensions(lattice.size,
                                                _incomparable(lattice)):
        by_size[mask.bit_count()] += 1
        maximal[mask.bit_count()] += not extension
    assert dict(enumerate(poset._antichain_sizes(lattice))) == by_size
    assert {k: c for k, c in enumerate(poset._maximal_sizes(lattice)) if c} \
        == {k: c for k, c in maximal.items() if c}
    assert poset._ideal_count(lattice.size, lattice.down) == \
        len(downset_masks(lattice.size, lattice.down)) == by_size.total()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_chain_polynomial_on_random_distributive_lattices(data):
    # the chain DP on J(P) of a random P on at most 8 points, against the
    # DP over the strict down-sets; the labels of P are a linear extension,
    # and each lower list is sorted by its removed point, as the chain DP
    # requires (the oracle lists the covers by index)
    lattice = ideal_lattice(transpose(_triangular_up_sets(data, 8)))
    lattice.lower = tuple(
        tuple(sorted(covers, key=lambda c: ideal ^ lattice.ideals[c]))
        for ideal, covers in zip(lattice.ideals, lattice.lower))
    assert chain_polynomial(lattice) == list_chain_polynomial(lattice)
