"""Parking functions and their bijection with labelled Dyck paths.

Rows of the n x n grid are numbered 1..n bottom to top; the label of the
north step in row i is the car parked there, and columns are numbered 1..n
left to right.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .config import check_order
from .paths import DyckPath, enumerate_paths


@dataclass(frozen=True)
class ParkingFunction:
    prefs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.prefs)
        for v in self.prefs:
            if not 1 <= v <= n:
                raise ValueError(f"preference {v} out of range 1..{n}")
        if not _sorted_prefix_ok(self.prefs):
            raise ValueError("not a parking function")

    @property
    def n(self) -> int:
        return len(self.prefs)


@dataclass(frozen=True)
class LabelledDyckPath:
    path: DyckPath
    labels: tuple[int, ...]  # label of the north step in row i, bottom to top

    def __post_init__(self) -> None:
        n = self.path.order
        if sorted(self.labels) != list(range(1, n + 1)):
            raise ValueError("labels must be a permutation of 1..n")
        offsets = self.path.north_offsets()
        for i in range(n - 1):
            if offsets[i] == offsets[i + 1] and \
                    self.labels[i] >= self.labels[i + 1]:
                raise ValueError("labels must increase up each column")

    def columns(self) -> tuple[int, ...]:
        """Column (1-based) of the north step in each row."""
        return tuple(e + 1 for e in self.path.north_offsets())


@dataclass(frozen=True)
class AreaLabelPair:
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
    if n == 0:
        return 1
    return (n + 1) ** (n - 1)


def enumerate_parking_functions(n: int) -> list[ParkingFunction]:
    """Filter all n^n preference vectors."""
    check_order(n, "parking")
    return [ParkingFunction(prefs)
            for prefs in itertools.product(range(1, n + 1), repeat=n)
            if _sorted_prefix_ok(prefs)]


def count_parking_by_filter(n: int) -> int:
    """The number of the n^n preference vectors that park: the filter of
    enumerate_parking_functions, counting instead of building."""
    check_order(n, "parking")
    return sum(map(_sorted_prefix_ok,
                   itertools.product(range(1, n + 1), repeat=n)))


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


def labelled_from_vectors(g: tuple[int, ...], p: tuple[int, ...]) -> LabelledDyckPath:
    """Reconstruct the labelled path determined by its area and label vectors."""
    offsets = tuple(i - gi for i, gi in enumerate(g))
    path = DyckPath.from_north_offsets(offsets)
    return LabelledDyckPath(path=path, labels=tuple(p))


def vector_conditions_ok(g: tuple[int, ...], p: tuple[int, ...]) -> bool:
    """The six admissibility conditions for an (area, label) vector pair."""
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
    check_order(n, "parking")
    labels = tuple(range(1, n + 1))
    results = []
    for d in enumerate_paths(n):
        runs = tuple(len(list(rows))
                     for _col, rows in itertools.groupby(d.north_offsets()))
        results.extend(LabelledDyckPath(path=d, labels=filling)
                       for filling in _increasing_fillings(runs, labels))
    return results


def content_group_representatives(n: int) -> list[tuple[int, ...]]:
    """One minimal-order column label vector per content group: the column
    of each north step of each unlabelled path, weakly increasing."""
    check_order(n, "parking")
    return [tuple(e + 1 for e in d.north_offsets())
            for d in enumerate_paths(n)]


def representative_leq(rep_low: tuple[int, ...], rep_high: tuple[int, ...]) -> bool:
    """rep_high's path lies above rep_low's iff componentwise high <= low."""
    return all(h <= l for h, l in zip(rep_high, rep_low))


def representative_path(rep: tuple[int, ...]) -> DyckPath:
    return DyckPath.from_north_offsets(tuple(c - 1 for c in rep))
