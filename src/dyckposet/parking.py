"""Parking functions and their bijection with labelled Dyck paths.

Rows of the n x n grid are numbered 1..n bottom to top; the label of the
north step in row i is the car parked there, and columns are numbered 1..n
left to right.  parking_census runs every check of the parking command on
the joined north offsets of one sweep of paths._halves, and builds no path:
a join's labellings are read off its equal offsets, the north steps of one
column, and the content groups are the distinct joins.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from typing import NamedTuple

from .checks import agree
from .config import check_order
from .paths import DyckPath, _halves, catalan_closed, enumerate_paths


class _ParkingFunctionFields(NamedTuple):
    prefs: tuple[int, ...]


class ParkingFunction(_ParkingFunctionFields):
    __slots__ = ()

    def __new__(cls, prefs) -> "ParkingFunction":
        prefs = tuple(prefs)
        if not is_parking_function(prefs):
            raise ValueError("not a parking function")
        return tuple.__new__(cls, (prefs,))

    @classmethod
    def _make(cls, fields) -> "ParkingFunction":
        # _replace builds through _make: run the checks of __new__
        return cls(*fields)

    @property
    def n(self) -> int:
        return len(self.prefs)


class _LabelledDyckPathFields(NamedTuple):
    path: DyckPath
    labels: tuple[int, ...]  # label of the north step in row i, bottom to top


class LabelledDyckPath(_LabelledDyckPathFields):
    __slots__ = ()

    def __new__(cls, path: DyckPath, labels) -> "LabelledDyckPath":
        labels = tuple(labels)
        n = path.order
        if sorted(labels) != list(range(1, n + 1)):
            raise ValueError("labels must be a permutation of 1..n")
        offsets = path.north_offsets()
        for i in range(n - 1):
            if offsets[i] == offsets[i + 1] and labels[i] >= labels[i + 1]:
                raise ValueError("labels must increase up each column")
        return tuple.__new__(cls, (path, labels))

    @classmethod
    def _make(cls, fields) -> "LabelledDyckPath":
        # _replace builds through _make: run the checks of __new__
        return cls(*fields)

    def columns(self) -> tuple[int, ...]:
        """Column (1-based) of the north step in each row."""
        return tuple(e + 1 for e in self.path.north_offsets())


class AreaLabelPair(NamedTuple):
    g: tuple[int, ...]
    p: tuple[int, ...]


def _sorted_prefix_ok(prefs: tuple[int, ...]) -> bool:
    return all(map(operator.le, sorted(prefs), range(1, len(prefs) + 1)))


def is_parking_function(prefs) -> bool:
    prefs = tuple(prefs)
    n = len(prefs)
    for v in prefs:
        if not 1 <= v <= n:
            raise ValueError(f"preference {v} out of range 1..{n}")
    return _sorted_prefix_ok(prefs)


def count_parking_functions(n: int) -> int:
    """(n + 1)^(n - 1); for n = 0 the empty function counts once."""
    check_order(n)
    if n == 0:
        return 1
    return (n + 1) ** (n - 1)


def enumerate_parking_functions(n: int) -> list[ParkingFunction]:
    """Filter all n^n preference vectors."""
    check_order(n, "paths")
    return [ParkingFunction(prefs)
            for prefs in itertools.product(range(1, n + 1), repeat=n)
            if _sorted_prefix_ok(prefs)]


def count_parking_by_filter(n: int) -> int:
    """The number of the n^n preference vectors that park, counted without
    building any object.  The sorted-prefix test depends only on a vector's
    multiset, so it runs once per weakly increasing vector; each vector is
    then tested by its content code, sum of 1 << (b*(p-1)) over its
    entries p with b = n.bit_length() (a count of at most n fits in b
    bits).  A vector's code is the sum of the codes of its two halves, so
    the half vectors are counted by code, and the count is the sum of
    cL * cR over the code pairs whose sum parks (meet in the middle,
    Horowitz and Sahni 1974).  Every half vector is visited; neither the
    closed form nor the paths are read."""
    check_order(n, "paths")
    b = n.bit_length()
    weights = [1 << (b * (p - 1)) for p in range(1, n + 1)]
    good = {sum(weights[p - 1] for p in v)
            for v in itertools.combinations_with_replacement(range(1, n + 1),
                                                             n)
            if _sorted_prefix_ok(v)}
    left, right = (Counter(map(sum, itertools.product(weights, repeat=k)))
                   for k in (n // 2, n - n // 2))
    return sum(cl * cr for a, cl in left.items() for c, cr in right.items()
               if a + c in good)


def parking_to_labelled(f: ParkingFunction) -> LabelledDyckPath:
    """Cars preferring column j become increasing labels in column j,
    stacked bottom-up from the next empty row."""
    n = f.n
    rows: list[tuple[int, int]] = []  # (column, label) per row, bottom up
    for j in range(1, n + 1):
        for car in sorted(x for x in range(1, n + 1) if f.prefs[x - 1] == j):
            rows.append((j, car))
    offsets = tuple(col - 1 for col, _car in rows)
    path = DyckPath.from_north_offsets(offsets)
    return LabelledDyckPath(path=path, labels=tuple(car for _col, car in rows))


def labelled_to_parking(labelled: LabelledDyckPath) -> ParkingFunction:
    n = labelled.path.order
    prefs = [0] * n
    for column, label in zip(labelled.columns(), labelled.labels):
        prefs[label - 1] = column
    return ParkingFunction(tuple(prefs))


def area_from_parking(f: ParkingFunction) -> int:
    """n(n+1)/2 minus the preference total equals the geometric area."""
    n = f.n
    return n * (n + 1) // 2 - sum(f.prefs)


def vectors_of(labelled: LabelledDyckPath) -> tuple[AreaLabelPair, tuple[int, ...]]:
    """The (area vector, row label vector) pair and the column label vector."""
    g = tuple(i - e for i, e in enumerate(labelled.path.north_offsets()))
    p = labelled.labels
    n = labelled.path.order
    columns = labelled.columns()
    col_of_label = [0] * n
    for row, label in enumerate(p):
        col_of_label[label - 1] = columns[row]
    return AreaLabelPair(g=g, p=p), tuple(col_of_label)


def _increasing_fillings(runs: tuple[int, ...],
                         labels: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every ordered partition of `labels` into increasing blocks of the
    sizes in `runs`, concatenated, in lexicographic order."""
    fillings = [((), labels)]  # (blocks so far, labels still unused)
    for size in runs[:-1]:
        fillings = [(head + block, tuple(x for x in rest if x not in block))
                    for head, rest in fillings
                    for block in itertools.combinations(rest, size)]
    # the last run takes the labels that are left
    return [head + rest for head, rest in fillings]


def enumerate_labelled_paths(n: int) -> list[LabelledDyckPath]:
    """Each path with every labelling that increases up its columns: the
    rows of one column take an increasing block of labels.  Paths come in
    canonical order, the labellings of a path in lexicographic order."""
    check_order(n, "paths")
    labels = tuple(range(1, n + 1))
    return [LabelledDyckPath(path=d, labels=filling)
            for d in enumerate_paths(n)
            for filling in _increasing_fillings(
                tuple(Counter(d.north_offsets()).values()), labels)]


def _labellings(offsets: tuple[int, ...]) -> int:
    """n!/(m_1!...m_k!) for the multiplicities m_1..m_k of the equal north
    offsets of a path of order n, the north steps of each column: one
    labelling per choice of each column's block."""
    return math.factorial(len(offsets)) // math.prod(
        map(math.factorial, Counter(offsets).values()))


class ParkingCensus(NamedTuple):
    count: int   # parking functions, and so labelled Dyck paths, of order n
    groups: int  # content groups


def parking_census(n: int) -> ParkingCensus:
    """The closed form, the filter and the labelled paths must give one
    count, and the distinct group representatives, the north offsets of the
    paths, must number C_n; they are joined from one sweep of half paths.
    A disagreement raises AssertionError."""
    check_order(n, "paths")
    firsts, seconds = _halves(n)
    joins = [head + tail for head in firsts for tail in seconds[len(head)]]
    count = agree("parking counts by closed form, filter and labelled paths",
                  count_parking_functions(n), count_parking_by_filter(n),
                  sum(map(_labellings, joins)))
    groups = agree("content groups and the Catalan number",
                   len(set(joins)), catalan_closed(n))
    return ParkingCensus(count=count, groups=groups)
