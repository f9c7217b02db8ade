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
upper triangular.  build_poset builds no path: it joins the masks of the
half paths of paths._halves, each one row mask per north offset, and keeps
each join's offsets.  A lower cover takes out the last cell of a row at a
peak: the rows y with e_y + 1 < y and y = n or e_y < e_{y+1}, one index
lookup each, C(2n-1, n-2) in all.  The lower covers are the one stored
relation (lower); the down-sets close them in the same pass, and a reader
that needs up-sets or cover_up masks derives them once.

Antichains are counted by size without listing them: a memoised split on
bitmasks of candidate elements that takes off one chain's part at a time,
along a first-fit chain partition (_chain_frame finds it in one pass that
tests each chain's top, and relabels the elements chain by chain, each
from its top down, from the down-sets and the covers).  Each state meets
the chain of its top label in one run of labels that ends there, so the
run's length gives its start; _antichain_sizes reads each run from a table
built once per call (_chain_runs), and no state slices the
incomparability masks.  The states number 6,834 at n = 6 against
37,620,704 antichains.  Each state's size polynomial is one integer, its
coefficients packed at a bit width that the same chain partition bounds
(53 bits at n = 6, set by polynomials.pack_width).  The width is checked
against Dilworth's minimum chain cover, a matching grown on bitmasks.
The maximal census runs the same split on the same frame, each state also
keeping the passed-over elements that still need a comparable member
(_maximal_sizes, which slices its runs): 36,578 states at n = 6.  Nothing
in the package lists the antichains; the tests do, by a depth-first
search, for the antichain-ideal bijection and the counts at n <= 5.
Order ideals are counted by a memoised split, an element at a time
(_ideal_count).

poset_census runs every check of the poset command.  One antichain census
checks its width against Dilworth's minimum chain cover, and its total must
equal the ideal count, as downward closure maps antichains one to one onto
ideals.  The rank sizes of the inversion recurrence must equal the
popcount histogram; the cover edges, each adding one cell at a valley, the
C(2n-1, n-2) valleys of the paths of order n (cover_edge_count, which the
chromatic command runs too); the minimum antichain cover, the C(n, 2) + 1
rank levels.
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
from .paths import _halves, catalan_closed, enumerate_paths  # noqa: F401
from .polynomials import _unpack, pack_width
from .qt import cn_inv


class DyckPoset(NamedTuple):
    n: int
    ideals: tuple[int, ...]             # area-cell mask of element i
    lower: tuple[tuple[int, ...], ...]  # the elements i covers, ascending
    down: tuple[int, ...]               # bitmask of j with j <= i

    @property
    def size(self) -> int:
        return len(self.ideals)

    @property
    def cover_up(self) -> tuple[int, ...]:
        """Bitmask of the j covering i, for each i: built on each read."""
        grown = [0] * self.size
        for i, j in self.cover_edges():
            grown[i] |= 1 << j
        return tuple(grown)

    def leq(self, i: int, j: int) -> bool:
        return self.ideals[i] & ~self.ideals[j] == 0

    def cover_edges(self) -> list[tuple[int, int]]:
        return [(i, j) for j, covers in enumerate(self.lower) for i in covers]


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

    tails = {a: [(half_mask(a, offsets), offsets) for offsets in level]
             for a, level in seconds.items()}
    heads = [(half_mask(0, offsets), offsets) for offsets in firsts]
    # the joins are lexicographic with N < E, as in enumerate_paths, whose
    # stable sort by area this sort by popcount repeats
    joined = sorted(((head | tail, offsets + rest) for head, offsets in heads
                     for tail, rest in tails[len(offsets)]),
                    key=lambda join: join[0].bit_count())
    ideals = tuple(mask for mask, _ in joined)
    index = {mask: i for i, mask in enumerate(ideals)}
    # cells[y][e]: the cell (e + 1, y + 1), last of row y + 1 at offset e
    cells = [[masks[e] ^ masks[e + 1] for e in range(y)]
             for y, masks in enumerate(rows)]
    lower, down = [], []
    for j, (mask, offsets) in enumerate(joined):
        # rows from the top down give the covers in ascending order, each
        # below j and so closed already; after is the offset of the row above
        covers, below, after = (), 1 << j, n
        for y in range(n - 1, 0, -1):
            e = offsets[y]
            if e < y and e < after:
                c = index[mask ^ cells[y][e]]
                covers += (c,)
                below |= down[c]
            after = e
        lower.append(covers)
        down.append(below)
    return DyckPoset(n=n, ideals=ideals, lower=tuple(lower), down=tuple(down))


# ---------------------------------------------------------------------------
# order ideals and antichains


def _ideal_count(size: int, down: tuple[int, ...]) -> int:
    """The number of order ideals of a poset on elements 0..size-1, listed in
    a linear extension, down[k] masking the down-set of k.  The undecided
    set U splits on its top x: an ideal omits x (nothing above x is
    undecided) or holds down[x].  Those decided in form a down-set and those
    out an up-set, so U alone is the state: 94,012 states at n = 6.  Each
    child is looked up before it is counted (no count is 0, as the empty
    ideal is always counted): one call per state besides the empty set."""
    memo = {0: 1}
    get = memo.get

    def count(undecided: int) -> int:
        x = undecided.bit_length() - 1
        out, held = undecided ^ 1 << x, undecided & ~down[x]
        memo[undecided] = found = ((get(out) or count(out))
                                   + (get(held) or count(held)))
        return found

    full = (1 << size) - 1
    return get(full) or count(full)


def order_ideal_count(p: DyckPoset) -> int:
    """The number of order ideals, counted without listing them."""
    check_order(p.n, "antichains")
    return _ideal_count(p.size, p.down)


class AntichainCensus(NamedTuple):
    by_size: dict[int, int]
    total: int
    width: int | None = None


def _chain_frame(p: DyckPoset) -> tuple[int, list[int], list[int]]:
    """The labelling that both antichain splits run on: (width, below, inc).

    It reads p.size, p.down and p.lower, in any labelling.  One first-fit
    pass takes the elements by down-set size, a linear extension, and puts
    each into the first chain inside its strict down-set.  A chain is kept
    as its elements in the order they joined, so its last is its top, and
    the chain lies in the strict down-set of v exactly when its top does: a
    test of one bit of down[v].  The elements are relabelled chain by
    chain, the chains in reverse order, each from its top down (its
    elements reversed, sorting none); below[t] masks the labels of the
    chains before label t - 1's, below[0] being 0, and inc[k] the labels
    incomparable to k, the down- and up-sets closed over the cover lists,
    relabelled once.  The elements of a chain incomparable to any one
    element form an interval of it, so each candidate set S of a split
    meets the chain C of its top label t - 1 in one run of labels that ends
    at t - 1: S & C is the slice t - |S & C|..t of the labels.  No
    candidate set holds more antichains than the product of
    (chain length + 1) over the chains, the bound of width, the bits per
    packed coefficient."""
    size, down = p.size, p.down
    ext = sorted(range(size), key=lambda v: down[v].bit_count())
    chains: list[list[int]] = []
    tops: list[int] = []
    for v in ext:
        held = down[v]
        for c, top in enumerate(tops):
            if held >> top & 1:
                chains[c].append(v)
                tops[c] = v
                break
        else:
            chains.append([v])
            tops.append(v)
    width = pack_width(prod(len(chain) + 1 for chain in chains))
    label, below = [0] * size, [0]
    for chain in reversed(chains):
        start = len(below) - 1
        for k, v in enumerate(reversed(chain), start):
            label[v] = k
        below += [(1 << start) - 1] * len(chain)
    # the extension and its cover lists in the new labels
    order = [label[v] for v in ext]
    lowers = [[label[c] for c in p.lower[v]] for v in ext]
    downs, ups = [1 << k for k in range(size)], [1 << k for k in range(size)]
    for k, covers in zip(order, lowers):
        mask = downs[k]
        for c in covers:
            mask |= downs[c]
        downs[k] = mask
    for k, covers in zip(reversed(order), reversed(lowers)):
        mask = ups[k]
        for c in covers:
            ups[c] |= mask
    full = (1 << size) - 1
    return width, below, [full & ~(d | u) for d, u in zip(downs, ups)]


def _chain_runs(below: list[int],
                inc: list[int]) -> list[list[tuple[int, ...]]]:
    """The run table of a chain frame: runs[t][k] is the tuple
    inc[t - k:t], for each top label t and each length k from 0 up to t
    less the first label of label t - 1's chain, below[t].bit_length().
    Every chain part S & C that a split meets is one of these runs."""
    inc = tuple(inc)
    return [[inc[k:t] for k in range(t, first - 1, -1)]
            for t, first in enumerate(map(int.bit_length, below))]


def _antichain_sizes(p: DyckPoset) -> tuple[int, ...]:
    """c[k] = number of k-element antichains of the poset p (size, down and
    lower, as _chain_frame reads them).

    A(S), the size polynomial of the antichains inside the candidate set S,
    splits on the chain C of the highest label of S: an antichain takes at
    most one element of a chain, so
    A(S) = A(S - C) + x sum_{u in S & C} A((S - C) & inc[u]).
    The recursion is one level per chain deep; the memo is keyed by S, and
    each child is looked up before it is counted (no A(S) is 0, as the
    empty antichain lies in every S): one call per state.

    A(S) is stored as the integer A(2^B), B the width of _chain_frame, so
    no coefficient carries.  With t the bit length of S, S & below[t] is
    S - C, and S & C is one run of labels that ends at t - 1, so its length
    gives its start: its elements' inc masks are runs[t][|S & C|], the
    tuple of inc[t - |S & C|:t] that _chain_runs builds once per call, so
    no state slices inc.  The table holds 693 nonempty runs at n = 6
    against 6,834 states besides the empty set (94,012 for the ideal
    split, which takes one element at a time); at n = 5 it holds 171
    against 120 states, so it pays only from n = 6 on."""
    width, below, inc = _chain_frame(p)
    runs = _chain_runs(below, inc)
    memo = {0: 1}
    get = memo.get

    def count(cand: int) -> int:
        top = cand.bit_length()
        rest = cand & below[top]
        part = cand ^ rest
        with_one = 0
        for mask in runs[top][part.bit_count()]:
            child = rest & mask
            with_one += get(child) or count(child)
        memo[cand] = result = (get(rest) or count(rest)) + (with_one << width)
        return result

    full = (1 << p.size) - 1
    return _unpack(get(full) or count(full), width)


def _maximal_sizes(p: DyckPoset) -> tuple[int, ...]:
    """c[k] = number of k-element maximal antichains of the poset p.

    The same chain split as _antichain_sizes, on the same frame and with
    the chain part read by its length, with the state (S, H): S the
    candidates, H the elements passed over that no chosen element is
    comparable to yet.  Skipping the chain C of the top of S goes to
    (S - C, H | S & C); taking u in S & C goes to ((S - C) & inc[u],
    H & inc[u]).  A state is dead when some w in H has no comparable
    candidate left, and is not entered; at S = 0 the state counts one
    antichain, maximal exactly when H = 0.  197 states at n = 5 and 36,578
    at n = 6, against 37,620,704 antichains.

    Coefficients are packed at the width of _chain_frame.  That is exact,
    as a state's maximal antichains are among the antichains of S, and no
    S holds more antichains than the width bounds.

    The chain part is read as a slice of inc, not from _chain_runs: at
    n = 5, the cap of this census, the table costs more than it saves (a
    call takes 408 us with the slice and 437 us with the table, the
    minimum of 200 interleaved in-process runs on Python 3.11.7); only at
    n = 6, past the cap, does it save 4-6%."""
    width, below, inc = _chain_frame(p)
    comparable = [~mask for mask in inc]
    memo: dict[tuple[int, int], int] = {}

    def alive(cand: int, hunt: int) -> bool:
        while hunt:
            w = hunt.bit_length() - 1
            if not comparable[w] & cand:
                return False
            hunt ^= 1 << w
        return True

    def count(cand: int, hunt: int) -> int:
        if not cand:
            return int(not hunt)
        key = cand, hunt
        found = memo.get(key)
        if found is not None:
            return found
        top = cand.bit_length()
        rest = cand & below[top]
        part = cand ^ rest
        skip = hunt | part
        result = count(rest, skip) if alive(rest, skip) else 0
        with_one = 0
        for mask in inc[top - part.bit_count():top]:
            taken, left = rest & mask, hunt & mask
            if alive(taken, left):
                with_one += count(taken, left)
        memo[key] = result = result + (with_one << width)
        return result

    return _unpack(count((1 << p.size) - 1, 0), width)


def antichain_census(p: DyckPoset, mode: str = "all", *,
                     _ranks: tuple[int, ...] | None = None
                     ) -> AntichainCensus:
    """Census of antichains: every one, the inclusion-maximal ones, or only
    those of maximum size (the width).

    "all" and "maximum" read the size polynomial of _antichain_sizes and
    check its degree (the width) against Dilworth's minimum chain cover,
    and against counts that read no poset: the width is at least the
    largest rank level (an antichain; _ranks passes rank_sizes(p.n) from a
    caller that has it, so it is not computed twice), x is C_n, x^2 the
    C(C_n, 2) pairs less the C_n C_{n+2} - C_{n+1}^2 - C_n comparable ones
    (A005700).  "maximal" reads the sizes that occur in the polynomial of
    _maximal_sizes, the one route in a run."""
    if mode not in ("all", "maximal", "maximum"):
        raise ValueError(f"unknown census mode {mode!r}")
    check_order(p.n, "maximal_antichains" if mode == "maximal"
                else "antichains")
    if mode == "maximal":
        by_size = {k: c for k, c in enumerate(_maximal_sizes(p)) if c}
        return AntichainCensus(by_size=by_size, total=sum(by_size.values()))
    c = _antichain_sizes(p)
    width = len(c) - 1
    padded = c + (0, 0)
    cn, cn1, cn2 = (catalan_closed(p.n + k) for k in range(3))
    agree("widths by antichain sizes and by Dilworth matching",
          width, min_chain_cover(p))
    top = max(rank_sizes(p.n) if _ranks is None else _ranks)
    agree("width and the largest rank level", width >= top, True)
    agree("1-element antichains and C_n", padded[1], cn)
    agree("2-element antichains and incomparable pairs by closed form",
          padded[2], comb(cn, 2) - (cn * cn2 - cn1 ** 2 - cn))
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
    maximum matching j -> i of the strict order i < j (Dilworth's theorem by
    Fulkerson's reduction), grown on the down-sets by Kuhn's augmenting paths.

    free masks the unmatched right vertices; a search takes the lowest one
    at once where it can.  seen is one int per search, and a node marks all
    its untried candidates before it tries any, so each right vertex is
    entered at most once; a path through a marked candidate is tried from
    the node that marked it.  Left vertices go from the bottom up: at
    n = 6 none of the 115 matches needs a search, at n = 8 11 of 1,312."""
    size = p.size
    strict = [down & ~(1 << j) for j, down in enumerate(p.down)]
    owner = [0] * size  # owner[i] = the left vertex matched to right i
    free = (1 << size) - 1

    def augment(j: int) -> bool:
        nonlocal free, seen
        hit = strict[j] & free
        if hit:
            i = (hit & -hit).bit_length() - 1
            free ^= 1 << i
            owner[i] = j
            return True
        untried = strict[j] & ~seen
        seen |= untried
        while untried:
            i = (untried & -untried).bit_length() - 1
            untried ^= 1 << i
            if augment(owner[i]):
                owner[i] = j
                return True
        return False

    matched = 0
    for j in range(size):
        seen = 0
        matched += augment(j)
    return size - matched


def min_antichain_cover(p: DyckPoset) -> int:
    """1 + length of the longest chain; the rank levels witness it.

    A longest chain is saturated, so it climbs by covers alone, and covers
    point forward in element order: one pass over the cover edges."""
    longest = [1] * p.size
    for i, j in p.cover_edges():
        longest[j] = max(longest[j], longest[i] + 1)
    return max(longest, default=0)


def maximal_chains(p: DyckPoset) -> list[tuple[int, ...]]:
    """All maximal chains as index tuples, minimum to maximum."""
    cover_up = p.cover_up
    chains: list[tuple[int, ...]] = []

    def walk(chain: tuple[int, ...]) -> None:
        grown = cover_up[chain[-1]]
        if not grown:
            chains.append(chain)
        for j in _bits(grown):
            walk(chain + (j,))

    walk((0,))
    return chains


# ---------------------------------------------------------------------------
# the census of the poset command


def cover_edge_count(p: DyckPoset) -> int:
    """Cover edges of D_n, one per valley of a path: they must number
    C(2n-1, n-2).  A disagreement raises AssertionError."""
    return agree("cover edges and the valley count C(2n-1, n-2)",
                 sum(map(len, p.lower)),
                 comb(2 * p.n - 1, p.n - 2) if p.n >= 2 else 0)


class PosetCensus(NamedTuple):
    rank_sizes: tuple[int, ...]  # element counts by decreasing rank
    order_ideals: int
    cover_edges: int
    width: int                   # equal to the minimum chain cover
    antichain_cover: int         # the minimum antichain cover


def poset_census(p: DyckPoset) -> PosetCensus:
    """The rank sizes, order ideals, cover edges, width and minimum
    antichain cover of D_n, each checked against a second route (see the
    module docstring).  Each piece of work runs once: the rank sizes feed
    both their own check and the census's width check.  A disagreement
    raises AssertionError."""
    check_order(p.n, "antichains")
    sizes = rank_sizes(p.n)
    census = antichain_census(p, "all", _ranks=sizes)
    by_rank = Counter(mask.bit_count() for mask in p.ideals)
    agree("rank sizes by recurrence and by the poset's rank histogram",
          sizes, tuple(by_rank[r] for r in range(max(by_rank), -1, -1)))
    ideal_count = agree("order ideal and antichain counts",
                        order_ideal_count(p), census.total)
    antichain_cover = agree(
        "minimum antichain cover and the C(n, 2) + 1 rank levels",
        min_antichain_cover(p), comb(p.n, 2) + 1)
    return PosetCensus(rank_sizes=sizes, order_ideals=ideal_count,
                       cover_edges=cover_edge_count(p),
                       width=max(census.by_size),
                       antichain_cover=antichain_cover)
