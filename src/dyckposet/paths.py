"""Dyck paths, their statistics, and Catalan counting by several routes.

A path of order n is a word of n 'N' and n 'E' steps whose every prefix
has at least as many norths as easts, stored as the x-offsets of its north
steps.  The canonical ordering used throughout the package (and for all
matrix indexing) is ascending area with lexicographic tie-break taking N < E.

The paths are made by meeting in the middle.  After n steps every path
stands on the anti-diagonal, at (n - a, a) with a >= n/2, so its words are
the first halves that end at level a joined to the second halves that start
there.  _halves makes both with one prefix sweep, extending every prefix
north before east: from the origin for the first halves, and from (n - a, a)
for the second halves of each level.  A half is the tuple of the x-offsets
of its north steps, absolute because its start point is fixed, so a join
concatenates the tuples and a first half ends at the level given by its
length.  Halves have equal lengths, so the joins come out in lexicographic
order, and a stable sort by area keeps that order among paths of equal
area.  Every command reads the joins without building a path: the poset
module ORs each half's area cells into its elements' masks, the parking
module counts the labellings of each join by its equal offsets, and the qt
module reads its statistics off values worked out once per half, the area
being C(n, 2) less the offset sum.  enumerate_paths builds a DyckPath from
the north offsets of each join, writing no word.
"""

from __future__ import annotations

from itertools import accumulate, count
from math import comb
from operator import attrgetter, gt, index
from typing import NamedTuple

from .checks import agree
from .config import check_order

NORTH = "N"
EAST = "E"


class DyckPath:
    """A Dyck path, stored as its north offsets e and its area.

    e[i] counts the easts before the i-th north step, 0 <= e[i] <= i weakly
    increasing, and the area is C(n, 2) less their sum.  DyckPath(steps)
    parses a step word, which steps writes back and repr shows; equality,
    hashing and pickling use e.  Instances are immutable: __setattr__
    refuses every assignment.
    """

    __slots__ = ("_offsets", "area")

    def __init__(self, steps: str) -> None:
        if not isinstance(steps, str):
            raise TypeError(
                f"step word must be a str, not {type(steps).__name__}")
        if len(steps) % 2 != 0:
            raise ValueError("step word must have even length")
        offsets: list[int] = []  # easts before each north step
        easts = 0
        for mark in steps:
            if mark == NORTH:
                offsets.append(easts)
            elif mark == EAST:
                easts += 1
                if easts > len(offsets):
                    raise ValueError("path drops below the diagonal")
            else:
                raise ValueError(f"invalid step mark {mark!r}")
        if len(offsets) != easts:
            raise ValueError("unbalanced step word")
        self._fill(tuple(offsets))

    def _fill(self, offsets: tuple[int, ...]) -> None:
        # object.__setattr__ fills the slots past the refusing __setattr__
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "area", comb(len(offsets), 2) - sum(offsets))

    @classmethod
    def from_north_offsets(cls, offsets) -> "DyckPath":
        """The path whose i-th north step has x-coordinate offsets[i]."""
        offsets = tuple(map(index, offsets))  # TypeError unless integers
        if list(offsets) != sorted(offsets):
            raise ValueError("north offsets must be weakly increasing")
        if min(offsets, default=0) < 0 or any(map(gt, offsets, count())):
            raise ValueError("north offsets must have 0 <= e[i] <= i")
        path = object.__new__(cls)
        path._fill(offsets)
        return path

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._offsets == other._offsets
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._offsets)

    def __reduce__(self):
        return DyckPath.from_north_offsets, (self._offsets,)

    @property
    def order(self) -> int:
        return len(self._offsets)

    @property
    def steps(self) -> str:
        """The step word: each north step after e[i] - e[i - 1] easts, and
        the closing easts before a north past the end, which [:-1] drops."""
        e = self._offsets
        return "".join(EAST * (b - a) + NORTH
                       for a, b in zip((0,) + e, e + (len(e),)))[:-1]

    def north_offsets(self) -> tuple[int, ...]:
        """x-coordinate of each north step: e[i] = #E before the i-th N."""
        return self._offsets

    def __repr__(self) -> str:
        return f"DyckPath({self.steps!r})"


class _PartitionFields(NamedTuple):
    parts: tuple[int, ...]


class Partition(_PartitionFields):
    """Weakly decreasing sequence of positive parts (English convention)."""

    __slots__ = ()

    def __new__(cls, parts) -> "Partition":
        parts = tuple(parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing")
        if parts and parts[-1] < 1:
            raise ValueError("parts must be positive")
        return tuple.__new__(cls, (parts,))

    @classmethod
    def _make(cls, fields) -> "Partition":
        # _replace builds through _make: run the checks of __new__
        return cls(*fields)

    @property
    def area(self) -> int:
        return sum(self.parts)

    def cells(self) -> list[tuple[int, int]]:
        """All (row, column) cells, 1-based."""
        return [(r, c) for r, size in enumerate(self.parts, start=1)
                for c in range(1, size + 1)]

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = [sum(1 for p in self.parts if p >= c)
                for c in range(1, self.parts[0] + 1)]
        return Partition(tuple(cols))

    @staticmethod
    def staircase(n: int) -> "Partition":
        check_order(n)
        return Partition(tuple(range(n - 1, 0, -1)))


class CellStats(NamedTuple):
    arm: int
    leg: int
    coarm: int
    coleg: int

    @property
    def hook(self) -> int:
        return self.arm + self.leg + 1


class PathStats(NamedTuple):
    area: int
    inv: int
    maj: int
    bounce: int
    area_vector: tuple[int, ...]


def catalan_closed(n: int) -> int:
    """C_n = C(2n, n) / (n + 1), exactly."""
    return comb(2 * n, n) // (n + 1)


def catalan_recurrence(n: int) -> int:
    """C_n by Catalan's triangle (OEIS A009766), the ballot numbers: T(m, k)
    counts the paths from (0, 0) to (k, m), k <= m, that never pass below
    the diagonal, so T(m, k) = T(m, k-1) + T(m-1, k) with T(m-1, m) = 0,
    and C_n = T(n, n).  Row m is the running sum of row m - 1 with a 0
    appended: additions only, and no product."""
    if n < 0:
        raise ValueError("n must be non-negative")
    row = [1]
    for _ in range(n):
        row = list(accumulate(row + [0]))
    return row[-1]


def catalan_count(n: int) -> int:
    """C_n by the closed form, which must equal the recurrence; a
    disagreement raises AssertionError."""
    return agree("Catalan closed form and recurrence",
                 catalan_closed(n), catalan_recurrence(n))


def count_bad_paths(n: int) -> int:
    """Monotone (n,n)-paths that dip below the diagonal, via the reflection
    into an (n+1) x (n-1) grid; they must be the C(2n, n) - C_n monotone
    paths that are not Dyck paths.  A disagreement raises AssertionError."""
    if n < 1:
        raise ValueError("n must be positive")
    return agree("bad paths by reflection and by complement",
                 comb(2 * n, n - 1), comb(2 * n, n) - catalan_closed(n))


def _sweep(n: int, norths: int, easts: int) -> list[tuple[int, ...]]:
    """The n-step walks from (easts, norths) that stay inside the n x n
    square and weakly above the diagonal, north before east, each as the
    tuple of the x-offsets of its north steps.

    After k steps a walk with offsets e has made len(e) norths and
    k - len(e) easts.
    """
    prefixes: list[tuple[int, ...]] = [()]
    for k in range(n):
        grown = []
        for offsets in prefixes:
            y = norths + len(offsets)
            x = easts + k - len(offsets)
            if y < n:
                grown.append(offsets + (x,))
            if x < y:
                grown.append(offsets)
        prefixes = grown
    return prefixes


def _halves(n: int) -> tuple[list[tuple], dict[int, list[tuple]]]:
    """The first halves of the paths of order n, and their second halves by
    the level a at which they start; each half is as in _sweep, and a first
    half ends at the level of its length."""
    check_order(n, "paths")
    return (_sweep(n, 0, 0),
            {a: _sweep(n, a, n - a) for a in range((n + 1) // 2, n + 1)})


def enumerate_paths(n: int) -> list[DyckPath]:
    """All Dyck paths of order n in canonical order."""
    firsts, seconds = _halves(n)
    joined = [DyckPath.from_north_offsets(head + tail) for head in firsts
              for tail in seconds[len(head)]]
    # the joins are lexicographic with N < E; a stable sort by area alone
    # keeps that tie-break
    joined.sort(key=attrgetter("area"))
    return joined


def path_stats(d: DyckPath) -> PathStats:
    n = d.order
    area = d.area
    offsets = d.north_offsets()
    # bounce path anchored at (n, n): west to the current top north segment,
    # south to the diagonal, repeat.  Contact points satisfy k' = e(k), the
    # x-offset of the k-th north step.
    bounce = 0
    k = n
    while k > 0:
        k = offsets[k - 1]
        bounce += k
    # maj sums the 1-based positions i of the valleys, step i east and
    # step i + 1 north: north step k follows an east iff e(k) > e(k - 1),
    # and then that east is step k + e(k)
    maj = sum(k + e for k, (before, e)
              in enumerate(zip(offsets, offsets[1:]), start=1) if e > before)
    return PathStats(area=area, inv=comb(n, 2) - area, maj=maj,
                     bounce=bounce,
                     area_vector=tuple(i - e for i, e in enumerate(offsets)))


def path_to_partition(d: DyckPath) -> Partition:
    """The Young diagram filling the grid cells above the path: the row of
    each north step holds the e cells to the left of it, top row first."""
    return Partition(tuple(e for e in reversed(d.north_offsets()) if e))


def cell_stats(partition: Partition) -> dict[tuple[int, int], CellStats]:
    """Arm/leg/coarm/coleg for every cell, keyed by (row, column), 1-based,
    in row-major order; read in one pass from the parts and their
    conjugate."""
    cols = partition.conjugate().parts
    return {(r, c): CellStats(arm=size - c, leg=cols[c - 1] - r,
                              coarm=c - 1, coleg=r - 1)
            for r, size in enumerate(partition.parts, start=1)
            for c in range(1, size + 1)}
