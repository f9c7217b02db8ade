"""The poset D_n of Dyck paths ordered by inclusion.

D_n is the distributive lattice J(P_n), and each element is stored once, as
its order ideal of P_n: the bitmask of its area cells.  An area cell is
(column j, row y) with e_y < j < y, e_y being the x-offset of the path's
north step in row y; the cells with 1 <= j < y <= n are the points of P_n,
where (j, y) lies above (j', y') iff j' >= j and y' <= y.  Bits are numbered
by distance y - j from the diagonal, then by column: a linear extension of
P_n.

Inclusion is mask inclusion, a cover adds one cell and the rank (area) is the
popcount.  Element i is the i-th path of enumerate_paths(n), the canonical
order, a linear extension of D_n, so zeta-type matrices built on it are
upper triangular; up- and down-sets are bitmasks over that order.  Nothing
else is kept per element: a caller that needs the paths enumerates them.
build_poset builds none: it joins the masks of the half paths of
paths._halves, each the union of one row mask per north step.

Antichains are counted by size without listing them: a memoised split on
bitmasks of candidate elements that takes off one chain's part at a time,
along a first-fit chain partition.  Each state meets each chain in an
interval, and the states number 7,038 at n = 6 against 37,620,704
antichains.  Each state's size polynomial is one integer, its coefficients
packed at a bit width that the same chain partition bounds (52 bits at
n = 6).  The width is checked against Dilworth's minimum chain cover, a
matching grown on bitmasks.  The maximal census walks the antichains by
one depth-first search, _antichain_extensions; the tests list them by the
same search for the antichain-ideal bijection and the counts at n <= 5.
Order ideals are counted by a memoised split, an element at a time
(_ideal_count).

poset_census runs every check of the poset command.  One antichain census
checks its width against Dilworth's minimum chain cover, and its total must
equal the ideal count, as downward closure maps antichains one to one onto
ideals.  The rank sizes of the inversion recurrence must equal the
popcount histogram; the cover edges, each adding one cell at a valley, the
C(2n-1, n-2) valleys of the paths of order n; the minimum antichain cover,
the C(n, 2) + 1 rank levels.
"""

from __future__ import annotations

import functools
from collections import Counter
from math import comb, prod
from typing import NamedTuple

from .checks import agree
from .config import check_order
# enumerate_paths is no longer called here, but stays bound as
# poset.enumerate_paths: bench/tests/test_harness.py checks that the tracer
# rebinds it by name, and tests/test_boundary.py that the binding stays
from .paths import _halves, enumerate_paths  # noqa: F401
from .polynomials import _unpack
from .qt import cn_inv


class DyckPoset(NamedTuple):
    n: int
    ideals: tuple[int, ...]    # ideals[i] = area-cell mask of element i
    up: tuple[int, ...]        # up[i] = bitmask of j with i <= j
    down: tuple[int, ...]      # down[i] = bitmask of j with j <= i
    cover_up: tuple[int, ...]  # bitmask of j covering i

    @property
    def size(self) -> int:
        return len(self.ideals)

    def leq(self, i: int, j: int) -> bool:
        return self.ideals[i] & ~self.ideals[j] == 0

    def cover_edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.size)
                for j in _bits(self.cover_up[i])]

    def incomparable(self, i: int) -> int:
        full = (1 << self.size) - 1
        return full & ~(self.up[i] | self.down[i])


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# area cells: the points of P_n


def _cell_bit(n: int, j: int, y: int) -> int:
    """Bit of the area cell in column j, row y: the n - e cells at each
    distance e < y - j from the diagonal come first."""
    d = y - j
    return (d - 1) * n - d * (d - 1) // 2 + j - 1


@functools.cache
def _row_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """Entry y - 1 lists, by the offset e of row y's north step from 0 to
    y - 1, the mask of the area cells (j, y) with e < j < y of row y; it
    depends on n alone, so it is built once per order."""
    table = []
    for y in range(1, n + 1):
        masks = [0] * y
        for e in reversed(range(y - 1)):
            masks[e] = masks[e + 1] | 1 << _cell_bit(n, e + 1, y)
        table.append(tuple(masks))
    return tuple(table)


def build_poset(n: int) -> DyckPoset:
    """D_n with element i the i-th path of enumerate_paths(n)."""
    firsts, seconds = _halves(n)
    rows = _row_masks(n)

    def half_mask(a: int, offsets: tuple[int, ...]) -> int:
        # a half that starts at level a climbs rows a + 1 on; its offsets
        # are absolute, so its mask is too
        mask = 0
        for masks, e in zip(rows[a:], offsets):
            mask |= masks[e]
        return mask

    tails = {a: [half_mask(a, offsets) for _, _, _, offsets, _ in level]
             for a, level in seconds.items()}
    joined = []
    for _, a, _, offsets, _ in firsts:
        head = half_mask(0, offsets)
        joined += [head | tail for tail in tails[a]]
    # the joins are lexicographic with N < E, as in enumerate_paths, whose
    # stable sort by area this sort by popcount repeats
    ideals = tuple(sorted(joined, key=int.bit_count))
    size = len(ideals)
    index = {mask: i for i, mask in enumerate(ideals)}
    points = [1 << b for b in range(comb(n, 2))]
    # j covers i iff ideal j is ideal i and one point of P_n more
    cover_up = []
    for ideal in ideals:
        grown = 0
        for point in points:
            if not ideal & point:
                j = index.get(ideal | point)
                if j is not None:
                    grown |= 1 << j
        cover_up.append(grown)
    # covers raise the area by one, so they point forward in element order:
    # one pass each way closes them into down- and up-sets
    down = [1 << i for i in range(size)]
    for i in range(size):
        for j in _bits(cover_up[i]):
            down[j] |= down[i]
    up = [1 << i for i in range(size)]
    for i in reversed(range(size)):
        for j in _bits(cover_up[i]):
            up[i] |= up[j]
    return DyckPoset(n=n, ideals=ideals, up=tuple(up), down=tuple(down),
                     cover_up=tuple(cover_up))


# ---------------------------------------------------------------------------
# order ideals and antichains


def _ideal_count(size: int, down: tuple[int, ...]) -> int:
    """The number of order ideals of a poset on elements 0..size-1, listed in
    a linear extension, down[k] masking the down-set of k.  The undecided
    set U splits on its top x: an ideal omits x (nothing above x is
    undecided) or holds down[x].  Those decided in form a down-set and those
    out an up-set, so U alone is the state: 94,012 states at n = 6."""
    memo = {0: 1}

    def count(undecided: int) -> int:
        found = memo.get(undecided)
        if found is None:
            x = undecided.bit_length() - 1
            found = memo[undecided] = (count(undecided ^ 1 << x)
                                       + count(undecided & ~down[x]))
        return found

    return count((1 << size) - 1)


def order_ideal_count(p: DyckPoset) -> int:
    """The number of order ideals, counted without listing them."""
    check_order(p.n, "antichains")
    return _ideal_count(p.size, p.down)


class AntichainCensus(NamedTuple):
    by_size: dict[int, int]
    total: int
    width: int | None = None


def _antichain_extensions(size: int, inc: list[int]):
    """Every antichain of a poset on elements 0..size-1, depth first, as a
    pair of bitmasks: the antichain and its extension set, the elements
    incomparable to each of its members, inc[i] being the bitmask of the
    elements incomparable to i.  An antichain is maximal iff its extension
    is 0.  Nothing is stored."""

    def grow(mask: int, extension: int, start: int):
        yield mask, extension
        for i in _bits(extension & ~((1 << (start + 1)) - 1)):
            yield from grow(mask | (1 << i), extension & inc[i], i)

    return grow(0, (1 << size) - 1, -1)


def _first_fit_chains(size: int, inc: list[int]) -> list[int]:
    """A partition of elements 0..size-1 into chains, as bitmasks: each
    element joins the first chain holding nothing incomparable to it."""
    chains: list[int] = []
    for i in range(size):
        for c, chain in enumerate(chains):
            if chain & inc[i] == 0:
                chains[c] = chain | 1 << i
                break
        else:
            chains.append(1 << i)
    return chains


def _antichain_sizes(size: int, inc: list[int]) -> tuple[int, ...]:
    """c[k] = number of k-element antichains of a poset on elements
    0..size-1, where inc[i] is the bitmask of elements incomparable to i.

    A(S), the size polynomial of the antichains inside the candidate set S,
    splits on the chain C of the highest element of S: an antichain takes
    at most one element of a chain, so, for any labelling,
    A(S) = A(S - C) + x sum_{u in S & C} A((S - C) & inc[u]).
    The recursion is one level per chain deep; the memo is keyed by S.

    A(S) is stored as the integer A(2^B), B bits per coefficient.  No S
    holds more antichains than the product of (chain length + 1) over the
    chains; B is that product's bit length, so no coefficient carries.

    The elements are relabelled chain by chain along a first-fit chain
    partition.  The elements of a chain incomparable to any one element
    form an interval of it, so, with elements given in a linear extension
    as D_n's are, each S meets each chain in an interval: 7,038 states at
    n = 6, against 14,673 splitting one element at a time and 186,905
    without the relabelling."""
    chains = _first_fit_chains(size, inc)
    width = prod(chain.bit_count() + 1 for chain in chains).bit_length()
    # the chains in reverse order, each from its top element down; below[k]
    # masks the labels of the chains before label k's
    order, below = [], []
    for chain in reversed(chains):
        below += [(1 << len(order)) - 1] * chain.bit_count()
        order += sorted(_bits(chain), reverse=True)
    bit = {v: 1 << k for k, v in enumerate(order)}
    # the labels' bits are distinct, so their sum is their union
    inc = [sum(bit[u] for u in _bits(inc[v])) for v in order]
    memo = {0: 1}

    def count(cand: int) -> int:
        found = memo.get(cand)
        if found is not None:
            return found
        rest = cand & below[cand.bit_length() - 1]
        part = cand ^ rest
        with_one = 0
        while part:
            u = part.bit_length() - 1
            part ^= 1 << u
            with_one += count(rest & inc[u])
        memo[cand] = result = count(rest) + (with_one << width)
        return result

    return _unpack(count((1 << size) - 1), width)


def antichain_census(p: DyckPoset, mode: str = "all") -> AntichainCensus:
    """Census of antichains: every one, the inclusion-maximal ones, or only
    those of maximum size (the width).

    "all" and "maximum" read the size polynomial of _antichain_sizes and
    check it against three independent counts: its degree (the width)
    against Dilworth's minimum chain cover, its x coefficient against the
    element count, and its x^2 coefficient against the incomparable pairs
    counted from the up-sets.  "maximal" counts, by size, the antichains
    of one depth-first enumeration whose extension set is empty."""
    if mode not in ("all", "maximal", "maximum"):
        raise ValueError(f"unknown census mode {mode!r}")
    check_order(p.n, "maximal_antichains" if mode == "maximal"
                else "antichains")
    inc = [p.incomparable(i) for i in range(p.size)]
    if mode == "maximal":
        by_size = Counter(mask.bit_count() for mask, extension
                          in _antichain_extensions(p.size, inc)
                          if extension == 0)
        return AntichainCensus(by_size=dict(by_size),
                               total=sum(by_size.values()))
    c = _antichain_sizes(p.size, inc)
    width = len(c) - 1
    padded = c + (0, 0)
    pairs = comb(p.size, 2) - sum(mask.bit_count() - 1 for mask in p.up)
    agree("widths by antichain sizes and by Dilworth matching",
          width, min_chain_cover(p))
    agree("1-element antichain and element counts", padded[1], p.size)
    agree("2-element antichain and incomparable pair counts",
          padded[2], pairs)
    if mode == "all":
        return AntichainCensus(by_size=dict(enumerate(c)), total=sum(c))
    return AntichainCensus(by_size={width: c[width]}, total=c[width],
                           width=width)


# ---------------------------------------------------------------------------
# rank sizes, width, and the two cover dualities


def rank_sizes(n: int) -> tuple[int, ...]:
    """Element counts by decreasing rank: the coefficients of the inversion
    recurrence (qt.cn_inv), since inv(D) = C(n,2) - area(D)."""
    inv = cn_inv(n)
    return tuple(inv.coeffs.get((e, 0), 0) for e in range(comb(n, 2) + 1))


def min_chain_cover(p: DyckPoset) -> int:
    """Minimum number of disjoint chains covering the poset: size less a
    maximum matching i -> j of the strict order i < j (Dilworth's theorem by
    Fulkerson's reduction), grown by Kuhn's augmenting paths.

    free masks the unmatched right vertices; a search takes the highest one
    at once where it can.  seen is one int per search, and a node marks all
    its untried candidates before it tries any, so each right vertex is
    entered at most once; a path through a marked candidate is tried from
    the node that marked it.  Left vertices go from the top down: at n = 6,
    114 of the 115 matches need no search."""
    size = p.size
    strict = [up & ~(1 << i) for i, up in enumerate(p.up)]
    owner = [0] * size  # owner[j] = the left vertex matched to right j
    free = (1 << size) - 1

    def augment(i: int) -> bool:
        nonlocal free, seen
        hit = strict[i] & free
        if hit:
            j = hit.bit_length() - 1
            free ^= 1 << j
            owner[j] = i
            return True
        untried = strict[i] & ~seen
        seen |= untried
        while untried:
            j = untried.bit_length() - 1
            untried ^= 1 << j
            if augment(owner[j]):
                owner[j] = i
                return True
        return False

    matched = 0
    for i in reversed(range(size)):
        seen = 0
        matched += augment(i)
    return size - matched


def min_antichain_cover(p: DyckPoset) -> int:
    """1 + length of the longest chain; the rank levels witness it."""
    longest = [1] * p.size
    for j in range(p.size):
        strict_below = p.down[j] & ~(1 << j)
        for i in _bits(strict_below):
            longest[j] = max(longest[j], longest[i] + 1)
    return max(longest, default=0)


def maximal_chains(p: DyckPoset) -> list[tuple[int, ...]]:
    """All maximal chains as index tuples, minimum to maximum."""
    minimum = 0
    chains: list[tuple[int, ...]] = []

    def walk(chain: list[int]) -> None:
        tip = chain[-1]
        succ = list(_bits(p.cover_up[tip]))
        if not succ:
            chains.append(tuple(chain))
            return
        for j in succ:
            chain.append(j)
            walk(chain)
            chain.pop()

    walk([minimum])
    return chains


# ---------------------------------------------------------------------------
# the census of the poset command


class PosetCensus(NamedTuple):
    rank_sizes: tuple[int, ...]  # element counts by decreasing rank
    order_ideals: int
    cover_edges: int
    width: int                   # equal to the minimum chain cover
    antichain_cover: int         # the minimum antichain cover


def poset_census(p: DyckPoset) -> PosetCensus:
    """The rank sizes, order ideals, cover edges, width and minimum
    antichain cover of D_n, each checked against a second route (see the
    module docstring).  A disagreement raises AssertionError."""
    check_order(p.n, "antichains")
    census = antichain_census(p, "all")
    sizes = rank_sizes(p.n)
    by_rank = Counter(mask.bit_count() for mask in p.ideals)
    agree("rank sizes by recurrence and by the poset's rank histogram",
          sizes, tuple(by_rank[r] for r in range(max(by_rank), -1, -1)))
    ideal_count = agree("order ideal and antichain counts",
                        order_ideal_count(p), census.total)
    cover_edges = agree("cover edges and the valley count C(2n-1, n-2)",
                        len(p.cover_edges()),
                        comb(2 * p.n - 1, p.n - 2) if p.n >= 2 else 0)
    antichain_cover = agree(
        "minimum antichain cover and the C(n, 2) + 1 rank levels",
        min_antichain_cover(p), comb(p.n, 2) + 1)
    return PosetCensus(rank_sizes=sizes, order_ideals=ideal_count,
                       cover_edges=cover_edges, width=max(census.by_size),
                       antichain_cover=antichain_cover)
