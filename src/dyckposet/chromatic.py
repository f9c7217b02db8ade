"""Chromatic polynomials of graphs by a vertex-frontier DP, and of the Hasse
diagram of D_n in particular; exhaustive colour counting is the oracle."""

from __future__ import annotations

from typing import NamedTuple

from .checks import agree
from .config import check_order
from .paths import catalan_closed
from .polynomials import UniPoly
from .poset import DyckPoset

Edge = tuple[int, int]


class _SimpleGraphFields(NamedTuple):
    vertex_count: int
    edges: frozenset[Edge]


class SimpleGraph(_SimpleGraphFields):
    __slots__ = ()

    def __new__(cls, vertex_count: int, edges) -> "SimpleGraph":
        if vertex_count < 0:
            raise ValueError("vertex count must be non-negative")
        edges = frozenset(edges)
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < v < vertex_count):
                raise ValueError("edges must be sorted pairs of valid vertices")
        return tuple.__new__(cls, (vertex_count, edges))

    @classmethod
    def _make(cls, fields) -> "SimpleGraph":
        # _replace builds through _make: run the checks of __new__
        return cls(*fields)

    @staticmethod
    def from_edges(vertex_count: int, pairs) -> "SimpleGraph":
        edges = frozenset(tuple(sorted(p)) for p in pairs)
        return SimpleGraph(vertex_count=vertex_count, edges=edges)


def hasse_graph(p: DyckPoset) -> SimpleGraph:
    return SimpleGraph.from_edges(p.size, p.cover_edges())


def chromatic_polynomial(g: SimpleGraph) -> UniPoly:
    """Count proper k-colourings in one pass over the vertices in index
    order: the frontier method of Sekine, Imai and Tani (ISAAC 1995).

    The frontier is the placed vertices that still have a later neighbour.
    A state is the partition of the frontier into colour classes, as a
    restricted-growth tuple in frontier order.  Its value is the coefficient
    list, ascending in k, of the number of colourings of the placed vertices
    that induce it.  Vertex v joins a class holding none of its earlier
    neighbours (factor 1) or opens a new one (factor k - #classes); then the
    vertices whose last neighbour is v leave the frontier and equal states
    merge.  One state, the empty partition, remains at the end.
    """
    earlier: list[set[int]] = [set() for _ in range(g.vertex_count)]
    last = list(range(g.vertex_count))  # last neighbour, or the vertex itself
    for u, v in g.edges:
        earlier[v].add(u)
        last[u] = max(last[u], v)
    frontier: list[int] = []
    states: dict[tuple[int, ...], list[int]] = {(): [1]}
    for v in range(g.vertex_count):
        blocked_at = [i for i, u in enumerate(frontier) if u in earlier[v]]
        frontier.append(v)
        keep = [i for i, u in enumerate(frontier) if last[u] > v]
        frontier = [frontier[i] for i in keep]
        placed: dict[tuple[int, ...], list[int]] = {}
        for labels, coeffs in states.items():
            classes = max(labels, default=-1) + 1
            blocked = {labels[i] for i in blocked_at}
            joined = coeffs + [0]
            opened = [a - classes * b for a, b in zip([0] + coeffs, joined)]
            for c in range(classes + 1):
                if c in blocked:
                    continue
                full = labels + (c,)
                seen: dict[int, int] = {}
                key = tuple(seen.setdefault(full[i], len(seen)) for i in keep)
                value = opened if c == classes else joined
                old = placed.get(key)
                placed[key] = value if old is None else [
                    a + b for a, b in zip(old, value)]
        states = placed
    (coeffs,) = states.values()
    return UniPoly.from_list(coeffs)


def hasse_vertex_count(p: DyckPoset) -> int:
    """Vertices of the Hasse diagram of D_n, one per Dyck path: they must
    number C_n.  A disagreement raises AssertionError."""
    return agree("Hasse diagram vertices and the Catalan number",
                 p.size, catalan_closed(p.n))


def hasse_chromatic(p: DyckPoset) -> UniPoly:
    """Chromatic polynomial of the Hasse diagram of D_n.  The diagram is
    connected and rank parity 2-colours it, so its value at 2 must be 2; a
    disagreement raises AssertionError."""
    check_order(p.n, "chromatic")
    poly = chromatic_polynomial(hasse_graph(p))
    agree("2-colourings of the Hasse diagram and two", poly(2), 2)
    return poly


def count_colourings_brute(g: SimpleGraph, colours: int) -> int:
    """Exhaustive proper-colouring count, for oracle use on small graphs."""
    total = 0
    assignment = [0] * g.vertex_count
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[max(u, v)].append(min(u, v))

    def assign(x: int) -> None:
        nonlocal total
        if x == g.vertex_count:
            total += 1
            return
        for c in range(colours):
            if all(assignment[y] != c for y in adj[x]):
                assignment[x] = c
                assign(x + 1)

    assign(0)
    return total
