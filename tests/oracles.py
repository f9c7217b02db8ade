"""Reference routes that more than one test module compares the package
against, and the routes that left the package for a faster one.  No command
runs them, so they live with the tests."""

from collections import Counter
from math import comb, prod
from operator import mul
from types import SimpleNamespace

from dyckposet import ExactMatrix, UniPoly
from dyckposet.paths import _halves
from dyckposet.poset import _row_masks


def segner_catalans(top):
    """[E_0, ..., E_top] by Segner's first-return convolution, E_0 = 1,
    E_m = sum_{k=1..m} E_{k-1} E_{m-k}, built bottom-up.  The terms k and
    m + 1 - k are equal, so each E_m sums the first half of its terms and
    doubles it, plus the middle square when m is odd."""
    values = [1]
    for m in range(1, top + 1):
        half = m // 2
        total = 2 * sum(map(mul, values[:half],
                            reversed(values[m - half:m])))
        if m % 2:
            total += values[half] ** 2
        values.append(total)
    return values


def column_heights(d):
    """Height of path d at each east step: h[j] counts the north steps
    before the j-th east step (0-based), those with offset e <= j."""
    return tuple(sum(e <= j for e in d.north_offsets())
                 for j in range(d.order))


def is_below(d1, d2):
    """True iff path d1 lies weakly below path d2: heights compared column
    by column."""
    if d1.order != d2.order:
        raise ValueError("paths must have the same order")
    return all(h1 <= h2 for h1, h2 in
               zip(column_heights(d1), column_heights(d2)))


def covers(p, i, j):
    """True iff element j covers element i of the poset p."""
    return i in p.lower[j]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def poset_by_probes(n):
    """D_n by probing every cell: the masks of the joined half paths sorted
    by popcount, j covering i iff ideal j is ideal i and one point of P_n
    more, found by looking up each of the C(n, 2) cells not in ideal i, and
    the down-sets closed over the cover_up masks.  A namespace of ideals,
    down and cover_up, each a tuple."""
    firsts, seconds = _halves(n)
    rows = _row_masks(n)

    def half_mask(a, offsets):
        mask = 0
        for masks, e in zip(rows[a:], offsets):
            mask |= masks[e]
        return mask

    tails = {a: [half_mask(a, offsets) for offsets in level]
             for a, level in seconds.items()}
    joined = []
    for offsets in firsts:
        head = half_mask(0, offsets)
        joined += [head | tail for tail in tails[len(offsets)]]
    ideals = tuple(sorted(joined, key=int.bit_count))
    size = len(ideals)
    index = {mask: i for i, mask in enumerate(ideals)}
    points = [1 << b for b in range(comb(n, 2))]
    cover_up = []
    for ideal in ideals:
        grown = 0
        for point in points:
            if not ideal & point:
                j = index.get(ideal | point)
                if j is not None:
                    grown |= 1 << j
        cover_up.append(grown)
    # covers raise the area by one, so they point forward in element order
    down = [1 << i for i in range(size)]
    for i in range(size):
        for j in _bits(cover_up[i]):
            down[j] |= down[i]
    return SimpleNamespace(ideals=ideals, down=tuple(down),
                           cover_up=tuple(cover_up))


def transpose(masks):
    """The relation masks read the other way: bit i of entry j is set iff
    bit j of masks[i] is; the down-sets of a poset from its up-sets, or
    back."""
    flipped = [0] * len(masks)
    for i, mask in enumerate(masks):
        for j in _bits(mask):
            flipped[j] |= 1 << i
    return flipped


def poset_record(up):
    """The poset with up-sets up, in the fields the antichain splits read:
    size, the down-sets, and lower[j], the elements j covers, found by
    brute force as the i < j with nothing strictly between."""
    down = transpose(up)
    lower = tuple(tuple(i for i in _bits(d ^ 1 << j)
                        if not up[i] & d & ~(1 << i | 1 << j))
                  for j, d in enumerate(down))
    return SimpleNamespace(size=len(up), down=tuple(down), lower=lower)


def first_fit_chains(p):
    """A partition of the elements of p (size and down-sets) into chains,
    as bitmasks: taken by down-set size, a linear extension, each element
    joins the first chain inside its strict down-set."""
    chains = []
    for i in sorted(range(p.size), key=lambda i: p.down[i].bit_count()):
        strict = p.down[i] ^ 1 << i
        for c, chain in enumerate(chains):
            if chain & ~strict == 0:
                chains[c] = chain | 1 << i
                break
        else:
            chains.append(1 << i)
    return chains


def chain_frame_by_sorting(p):
    """The frame (width, below, inc) of the antichain splits, built by
    sorting: along first_fit_chains, the chains in reverse order, each
    chain's elements sorted from its top down by down-set size and labelled
    in that order.  below[t] masks the labels of the chains before label
    t - 1's, below[0] being 0; inc[k] masks the labels incomparable to k,
    the down- and up-sets closed over p.lower in the same extension; width
    is the bit length of the product of (chain length + 1), plus one."""
    size, down = p.size, p.down
    chains = first_fit_chains(p)
    width = prod(chain.bit_count() + 1 for chain in chains).bit_length() + 1
    label, below = [0] * size, []
    for chain in reversed(chains):
        top_down = sorted(_bits(chain), key=lambda v: -down[v].bit_count())
        for k, v in enumerate(top_down, len(below)):
            label[v] = k
        below += [(1 << len(below)) - 1] * len(top_down)
    ext = sorted(range(size), key=lambda v: down[v].bit_count())
    downs, ups = [1 << k for k in range(size)], [1 << k for k in range(size)]
    for v in ext:
        for c in p.lower[v]:
            downs[label[v]] |= downs[label[c]]
    for v in reversed(ext):
        for c in p.lower[v]:
            ups[label[c]] |= ups[label[v]]
    full = (1 << size) - 1
    return width, [0] + below, [full & ~(d | u) for d, u in zip(downs, ups)]


def ideal_lattice(points):
    """J(P), the order ideals of the poset P ordered by inclusion, points[x]
    masking the down-set of point x.  It is grown level by level from P's
    definition: an ideal of size r + 1 is one of size r and a point whose
    down-set it then holds, and its lower covers drop one point each.  A
    DyckPoset-shaped record: ideals (the masks, by size, a linear
    extension), lower, down, and size."""
    ideals, level = [0], [0]
    while level:
        level = sorted({ideal | 1 << x for ideal in level
                        for x in range(len(points))
                        if not ideal >> x & 1
                        and points[x] & ~(ideal | 1 << x) == 0})
        ideals += level
    index = {ideal: i for i, ideal in enumerate(ideals)}
    lower = tuple(tuple(sorted(index[ideal ^ 1 << x] for x in _bits(ideal)
                               if ideal ^ 1 << x in index))
                  for ideal in ideals)
    down = []
    for j, covers in enumerate(lower):
        mask = 1 << j
        for i in covers:
            mask |= down[i]
        down.append(mask)
    return SimpleNamespace(ideals=tuple(ideals), lower=lower,
                           down=tuple(down), size=len(ideals))


def list_chain_polynomial(p):
    """The chain polynomial of a graded poset listed in a linear extension,
    ranked by the popcount of its ideals: the plain DP, each element's
    chain counts a list indexed by edge count, summed over its strict
    down-set.  It reads ideals and down, not lower."""
    ends = []
    totals = [0] * (max(map(int.bit_count, p.ideals)) + 1)
    for j, (ideal, mask) in enumerate(zip(p.ideals, p.down)):
        below = [0] * ideal.bit_count()
        for i in _bits(mask & ~(1 << j)):
            for k, c in enumerate(ends[i]):
                below[k] += c
        row = [1] + below
        ends.append(row)
        for k, c in enumerate(row):
            totals[k] += c
    return UniPoly.one() + UniPoly({k + 1: c for k, c in enumerate(totals)})


def antichain_extensions(size, inc):
    """Every antichain of a poset on elements 0..size-1, depth first, as a
    pair of bitmasks: the antichain and its extension set, the elements
    incomparable to each of its members, inc[i] being the bitmask of the
    elements incomparable to i.  An antichain is maximal iff its extension
    is 0.  Nothing is stored."""

    def grow(mask, extension, start):
        yield mask, extension
        for i in _bits(extension & ~((1 << (start + 1)) - 1)):
            yield from grow(mask | (1 << i), extension & inc[i], i)

    return grow(0, (1 << size) - 1, -1)


def maximal_antichains_by_size(size, inc):
    """Maximal antichains of a poset on elements 0..size-1 counted by size,
    as the maximal cliques of its incomparability graph, inc[i] masking the
    neighbours of i: Bron-Kerbosch with Tomita's pivot, the vertex of
    cand | done with the most neighbours in cand (Tomita, Tanaka and
    Takahashi, TCS 363, 2006).  It reads nothing but inc."""
    counts = Counter()

    def expand(k, cand, done):
        if not cand | done:
            counts[k] += 1
            return
        pivot = max(_bits(cand | done),
                    key=lambda u: (cand & inc[u]).bit_count())
        for v in _bits(cand & ~inc[pivot]):
            expand(k + 1, cand & inc[v], done & inc[v])
            cand ^= 1 << v
            done |= 1 << v

    expand(0, (1 << size) - 1, 0)
    return dict(counts)


def divide_exact(poly, divisor):
    """poly / divisor for UniPolys by long division; raises if the
    remainder is nonzero or a division step would leave the integers."""
    if not divisor:
        raise ZeroDivisionError("division by zero polynomial")
    rem = dict(poly.coeffs)
    quot = {}
    dd = divisor.degree
    lead = divisor.coeffs[dd]
    while rem:
        rd = max(rem)
        if rd < dd:
            raise ArithmeticError("nonzero remainder in exact division")
        c, r = divmod(rem[rd], lead)
        if r != 0:
            raise ArithmeticError("non-integer quotient in exact division")
        quot[rd - dd] = c
        for e, dc in divisor.coeffs.items():
            key = rd - dd + e
            rem[key] = rem.get(key, 0) - c * dc
            if rem[key] == 0:
                del rem[key]
    return UniPoly(quot)


def invert_unitriangular(m):
    """Exact inverse of a unit upper-triangular ExactMatrix by back
    substitution; raises ValueError on any other matrix."""
    dim = m.dim
    if any(m.rows[i][j] != int(i == j)
           for i in range(dim) for j in range(i + 1)):
        raise ValueError("matrix is not unit upper-triangular")
    inv = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for j in range(dim):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(m.rows[i][k] * inv[k][j]
                             for k in range(i + 1, j + 1))
    return ExactMatrix(inv)
