"""Dyck paths, their statistics, and Catalan counting by several routes.

A path of order n is stored as its step word: a string of n 'N' and n 'E'
marks whose every prefix has at least as many norths as easts.  The canonical
ordering used throughout the package (and for all matrix indexing) is
ascending area with lexicographic tie-break taking N < E.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .config import check_order

NORTH = "N"
EAST = "E"

# lexicographic tie-break with N sorting before E
_LEX = str.maketrans({NORTH: "0", EAST: "1"})


@dataclass(frozen=True, order=False)
class DyckPath:
    steps: str
    # read off the step word by the one walk in __post_init__; equality,
    # hashing and repr depend on steps alone
    _heights: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _offsets: tuple[int, ...] = field(init=False, compare=False, repr=False)
    area: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        word = self.steps
        if len(word) % 2 != 0:
            raise ValueError("step word must have even length")
        heights: list[int] = []  # norths before each east step
        offsets: list[int] = []  # easts before each north step
        for mark in word:
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
        # area = sum over columns j of h[j] - j
        object.__setattr__(self, "_heights", tuple(heights))
        object.__setattr__(self, "_offsets", tuple(offsets))
        object.__setattr__(self, "area", sum(heights) - n * (n + 1) // 2)

    @property
    def order(self) -> int:
        return len(self.steps) // 2

    def column_heights(self) -> tuple[int, ...]:
        """Height of the path at each east step: h[j] = #N before the j-th E."""
        return self._heights

    def north_offsets(self) -> tuple[int, ...]:
        """x-coordinate of each north step: e[i] = #E before the i-th N."""
        return self._offsets

    def sort_key(self) -> tuple[int, str]:
        return (self.area, self.steps.translate(_LEX))

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

    @staticmethod
    def staircase(n: int) -> "DyckPath":
        return DyckPath((NORTH + EAST) * n)

    @staticmethod
    def full(n: int) -> "DyckPath":
        return DyckPath(NORTH * n + EAST * n)


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing sequence of positive parts (English convention)."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing")
        if self.parts and self.parts[-1] < 1:
            raise ValueError("parts must be positive")

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
        return Partition(tuple(range(n - 1, 0, -1)))


@dataclass(frozen=True)
class CellStats:
    arm: int
    leg: int
    coarm: int
    coleg: int

    @property
    def hook(self) -> int:
        return self.arm + self.leg + 1


@dataclass(frozen=True)
class PathStats:
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
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(values[k - 1] * values[m - k]
                          for k in range(1, m + 1)))
    return values[n]


def count_bad_paths(n: int) -> int:
    """Monotone (n,n)-paths that dip below the diagonal, via the reflection
    into an (n+1) x (n-1) grid."""
    if n < 1:
        raise ValueError("n must be positive")
    return comb(2 * n, n - 1)


def enumerate_paths(n: int) -> list[DyckPath]:
    """All Dyck paths of order n in canonical order."""
    check_order(n, "paths")
    words: list[str] = []

    def extend(prefix: list[str], norths: int, easts: int) -> None:
        if norths == n and easts == n:
            words.append("".join(prefix))
            return
        if norths < n:
            prefix.append(NORTH)
            extend(prefix, norths + 1, easts)
            prefix.pop()
        if easts < norths:
            prefix.append(EAST)
            extend(prefix, norths, easts + 1)
            prefix.pop()

    extend([], 0, 0)
    paths = [DyckPath(w) for w in words]
    paths.sort(key=DyckPath.sort_key)
    return paths


def is_below(d1: DyckPath, d2: DyckPath) -> bool:
    """True iff d1 lies weakly below d2 (heights compared column by column)."""
    if d1.order != d2.order:
        raise ValueError("paths must have the same order")
    return all(h1 <= h2 for h1, h2 in
               zip(d1.column_heights(), d2.column_heights()))


def _bounce(d: DyckPath) -> int:
    # Bounce path anchored at (n, n): west to the current top north segment,
    # south to the diagonal, repeat.  Contact points satisfy k' = e(k), the
    # x-offset of the k-th north step.
    offsets = d.north_offsets()
    k = d.order
    total = 0
    while k > 0:
        k = offsets[k - 1]
        total += k
    return total


def _maj(d: DyckPath) -> int:
    """Sum of the 1-based positions i with step i east and step i + 1 north."""
    steps = d.steps
    total = 0
    i = steps.find(EAST + NORTH)
    while i >= 0:
        total += i + 1
        i = steps.find(EAST + NORTH, i + 2)
    return total


def path_stats(d: DyckPath) -> PathStats:
    n = d.order
    area = d.area
    inv = comb(n, 2) - area
    maj = _maj(d)
    offsets = d.north_offsets()
    area_vector = tuple(i - e for i, e in enumerate(offsets))
    return PathStats(area=area, inv=inv, maj=maj, bounce=_bounce(d),
                     area_vector=area_vector)


def path_to_partition(d: DyckPath) -> Partition:
    """The Young diagram filling the grid cells above the path."""
    n = d.order
    col_counts = [n - h for h in d.column_heights()]  # weakly decreasing
    rows = []
    for r in range(1, n):
        size = sum(1 for c in col_counts if c >= r)
        if size == 0:
            break
        rows.append(size)
    return Partition(tuple(rows))


def partition_to_path(partition: Partition, n: int) -> DyckPath:
    """Inverse of path_to_partition for diagrams fitting above an order-n path."""
    parts = partition.parts
    if len(parts) > max(n - 1, 0):
        raise ValueError("partition has too many rows for this order")
    for i, p in enumerate(parts, start=1):
        if p > n - i:
            raise ValueError(f"row {i} of size {p} exceeds the n - i bound")
    col_counts = [sum(1 for p in parts if p >= c) for c in range(1, n + 1)]
    heights = [n - c for c in col_counts]
    word = []
    prev = 0
    for h in heights:
        word.append(NORTH * (h - prev))
        word.append(EAST)
        prev = h
    return DyckPath("".join(word))


def cell_stats(partition: Partition) -> dict[tuple[int, int], CellStats]:
    """Arm/leg/coarm/coleg for every cell, keyed by (row, column), 1-based."""
    parts = partition.parts
    stats = {}
    for r, size in enumerate(parts, start=1):
        for c in range(1, size + 1):
            arm = size - c
            leg = sum(1 for p in parts[r:] if p >= c)
            stats[(r, c)] = CellStats(arm=arm, leg=leg, coarm=c - 1, coleg=r - 1)
    return stats
