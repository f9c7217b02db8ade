"""Dyck paths, their statistics, and Catalan counting by several routes.

A path of order n is stored as its step word: a string of n 'N' and n 'E'
marks whose every prefix has at least as many norths as easts.  The canonical
ordering used throughout the package (and for all matrix indexing) is
ascending area with lexicographic tie-break taking N < E.

The paths are made by meeting in the middle.  After n steps every path
stands on the anti-diagonal, at (n - a, a) with a >= n/2, so its words are
the first halves that end at level a joined to the second halves that start
there.  _halves makes both with one prefix sweep, extending every prefix
north before east: from the origin for the first halves, and from (n - a, a)
for the second halves of each level.  Each half carries its north offsets
and height sum, absolute because its start point is fixed, so a join
concatenates the offsets and adds the sums.  Halves have equal lengths, so
the joins come out in lexicographic order, and a stable sort by area keeps
that order among paths of equal area.  Every command reads the joins
without building a path: the poset module ORs each half's area cells into
its elements' masks, the parking module counts the labellings of each
joined word, and the qt module reads its statistics off values worked out
once per half.  enumerate_paths builds a DyckPath from each joined word.
"""

from __future__ import annotations

from math import comb
from operator import attrgetter
from typing import NamedTuple

from .checks import agree
from .config import check_order

NORTH = "N"
EAST = "E"


class DyckPath:
    """A Dyck path, stored as its step word.

    Equality, hashing and repr depend on steps alone; the column heights,
    north offsets and area are read off the word by the one walk in
    __init__.  Instances are immutable: __setattr__ refuses every
    assignment.
    """

    __slots__ = ("steps", "_heights", "_offsets", "area")

    def __init__(self, steps: str) -> None:
        if not isinstance(steps, str):
            raise TypeError(
                f"step word must be a str, not {type(steps).__name__}")
        if len(steps) % 2 != 0:
            raise ValueError("step word must have even length")
        heights: list[int] = []  # norths before each east step
        offsets: list[int] = []  # easts before each north step
        for mark in steps:
            if mark == NORTH:
                offsets.append(len(heights))
            elif mark == EAST:
                heights.append(len(offsets))
                if len(heights) > len(offsets):
                    raise ValueError("path drops below the diagonal")
            else:
                raise ValueError(f"invalid step mark {mark!r}")
        if len(offsets) != len(heights):
            raise ValueError("unbalanced step word")
        n = len(heights)
        # object.__setattr__ fills the slots past the refusing __setattr__
        set_field = object.__setattr__
        set_field(self, "steps", steps)
        set_field(self, "_heights", tuple(heights))
        set_field(self, "_offsets", tuple(offsets))
        # area = sum over columns j of h[j] - j
        set_field(self, "area", sum(heights) - n * (n + 1) // 2)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.steps == other.steps
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.steps,))

    def __reduce__(self):
        return DyckPath, (self.steps,)

    @property
    def order(self) -> int:
        return len(self.steps) // 2

    def column_heights(self) -> tuple[int, ...]:
        """Height of the path at each east step: h[j] = #N before the j-th E."""
        return self._heights

    def north_offsets(self) -> tuple[int, ...]:
        """x-coordinate of each north step: e[i] = #E before the i-th N."""
        return self._offsets

    def __repr__(self) -> str:
        return f"DyckPath({self.steps!r})"

    @staticmethod
    def from_north_offsets(offsets: tuple[int, ...] | list[int]) -> "DyckPath":
        """Rebuild the step word from the x-coordinates of the north steps."""
        n = len(offsets)
        word = []
        easts = 0
        for e in offsets:
            if e < easts:
                raise ValueError("north offsets must be weakly increasing")
            word.append(EAST * (e - easts))
            word.append(NORTH)
            easts = e
        word.append(EAST * (n - easts))
        return DyckPath("".join(word))


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
    """E_0 = 1, E_n = sum_{k=1..n} E_{k-1} E_{n-k}, built bottom-up."""
    if n < 0:
        raise ValueError("n must be non-negative")
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(values[k - 1] * values[m - k]
                          for k in range(1, m + 1)))
    return values[n]


def catalan_count(n: int) -> int:
    """C_n by the closed form, which must equal the recurrence; a
    disagreement raises AssertionError."""
    return agree("Catalan closed form and recurrence",
                 catalan_closed(n), catalan_recurrence(n))


def count_bad_paths(n: int) -> int:
    """Monotone (n,n)-paths that dip below the diagonal, via the reflection
    into an (n+1) x (n-1) grid."""
    if n < 1:
        raise ValueError("n must be positive")
    return comb(2 * n, n - 1)


def _sweep(n: int, steps: int, prefixes: list[tuple]) -> list[tuple]:
    """Extend each prefix by steps steps that stay inside the n x n square
    and weakly above the diagonal, north before east.

    An entry is (word, norths, easts, offsets, height_sum): a north records
    the easts so far as its offset, an east adds the norths so far, its
    column height, to the height sum.
    """
    for _ in range(steps):
        grown = []
        for word, norths, easts, offsets, height_sum in prefixes:
            if norths < n:
                grown.append((word + NORTH, norths + 1, easts,
                              offsets + (easts,), height_sum))
            if easts < norths:
                grown.append((word + EAST, norths, easts + 1, offsets,
                              height_sum + norths))
        prefixes = grown
    return prefixes


def _halves(n: int) -> tuple[list[tuple], dict[int, list[tuple]]]:
    """The first halves of the paths of order n, and their second halves by
    the level a at which they start; entries are as in _sweep."""
    check_order(n, "paths")
    return (_sweep(n, n, [("", 0, 0, (), 0)]),
            {a: _sweep(n, n, [("", a, n - a, (), 0)])
             for a in range((n + 1) // 2, n + 1)})


def enumerate_paths(n: int) -> list[DyckPath]:
    """All Dyck paths of order n in canonical order."""
    firsts, seconds = _halves(n)
    joined = [DyckPath(word + tail) for word, a, _, _, _ in firsts
              for tail, _, _, _, _ in seconds[a]]
    # the joins are lexicographic with N < E; a stable sort by area alone
    # keeps that tie-break
    joined.sort(key=attrgetter("area"))
    return joined


def _valleys(word: str) -> list[int]:
    """The 1-based positions i with step i east and step i + 1 north; maj
    is their sum."""
    return [i for i in range(1, len(word))
            if word[i - 1] == EAST and word[i] == NORTH]


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
    return PathStats(area=area, inv=comb(n, 2) - area,
                     maj=sum(_valleys(d.steps)), bounce=bounce,
                     area_vector=tuple(i - e for i, e in enumerate(offsets)))


def path_to_partition(d: DyckPath) -> Partition:
    """The Young diagram filling the grid cells above the path."""
    n = d.order
    return Partition(tuple(n - h for h in d.column_heights()
                           if h < n)).conjugate()


def cell_stats(partition: Partition) -> dict[tuple[int, int], CellStats]:
    """Arm/leg/coarm/coleg for every cell, keyed by (row, column), 1-based,
    in row-major order; read in one pass from the parts and their
    conjugate."""
    cols = partition.conjugate().parts
    return {(r, c): CellStats(arm=size - c, leg=cols[c - 1] - r,
                              coarm=c - 1, coleg=r - 1)
            for r, size in enumerate(partition.parts, start=1)
            for c in range(1, size + 1)}
