"""Chromatic polynomials of Hasse diagrams by memoized deletion-contraction."""

from __future__ import annotations

from dataclasses import dataclass

from .config import check_order
from .polynomials import UniPoly
from .poset import DyckPoset

Edge = tuple[int, int]


@dataclass(frozen=True)
class SimpleGraph:
    vertex_count: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < v < self.vertex_count):
                raise ValueError("edges must be sorted pairs of valid vertices")

    @staticmethod
    def from_edges(vertex_count: int, pairs) -> "SimpleGraph":
        edges = frozenset(tuple(sorted(p)) for p in pairs)
        return SimpleGraph(vertex_count=vertex_count, edges=edges)


def hasse_graph(p: DyckPoset) -> SimpleGraph:
    return SimpleGraph.from_edges(p.size, p.cover_edges())


def _components(vcount: int, edges: frozenset[Edge]) -> list[set[int]]:
    parent = list(range(vcount))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups: dict[int, set[int]] = {}
    for x in range(vcount):
        groups.setdefault(find(x), set()).add(x)
    return list(groups.values())


def _canonical_key(vcount: int, edges: frozenset[Edge]):
    # deterministic relabeling via degree refinement; equal keys imply equal
    # relabeled graphs, so memo hits are always sound
    degree = [0] * vcount
    neighbors: list[list[int]] = [[] for _ in range(vcount)]
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
        neighbors[u].append(v)
        neighbors[v].append(u)
    label = [(degree[x],) for x in range(vcount)]
    for _ in range(2):
        label = [(degree[x], tuple(sorted(label[y] for y in neighbors[x])))
                 for x in range(vcount)]
    order = sorted(range(vcount), key=lambda x: (label[x], x))
    relabel = {old: new for new, old in enumerate(order)}
    canon = tuple(sorted(tuple(sorted((relabel[u], relabel[v])))
                         for u, v in edges))
    return (vcount, canon)


def _contract(vcount: int, edges: frozenset[Edge], e: Edge) -> tuple[int, frozenset[Edge]]:
    u, v = e
    # merge v into u, relabel to 0..vcount-2, dropping loops and duplicates
    def rename(x: int) -> int:
        if x == v:
            x = u
        return x if x < v else x - 1

    new_edges = set()
    for a, b in edges:
        ra, rb = rename(a), rename(b)
        if ra != rb:
            new_edges.add((min(ra, rb), max(ra, rb)))
    return vcount - 1, frozenset(new_edges)


def chromatic_polynomial(g: SimpleGraph) -> UniPoly:
    """Deletion-contraction with canonical-form memoization; forests and
    disconnected remnants short-circuit to closed forms."""
    memo: dict = {}
    t = UniPoly.x()
    t_minus_1 = t - 1

    def rec(vcount: int, edges: frozenset[Edge]) -> UniPoly:
        if not edges:
            return t ** vcount
        comps = _components(vcount, edges)
        if len(edges) == vcount - len(comps):  # forest
            return (t ** len(comps)) * t_minus_1 ** len(edges)
        if len(comps) > 1:
            poly = UniPoly.one()
            for comp in comps:
                order = {x: i for i, x in enumerate(sorted(comp))}
                sub = frozenset((order[u], order[v]) for u, v in edges
                                if u in comp)
                poly = poly * rec(len(comp), sub)
            return poly
        key = _canonical_key(vcount, edges)
        if key in memo:
            return memo[key]
        degree: dict[int, int] = {}
        for u, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        pivot = max(degree, key=lambda x: (degree[x], -x))
        edge = max((e for e in edges if pivot in e),
                   key=lambda e: degree[e[0]] + degree[e[1]])
        deleted = rec(vcount, edges - {edge})
        cv, ce = _contract(vcount, edges, edge)
        contracted = rec(cv, ce)
        result = deleted - contracted
        memo[key] = result
        return result

    return rec(g.vertex_count, g.edges)


def hasse_chromatic(p: DyckPoset) -> UniPoly:
    """Chromatic polynomial of the Hasse diagram of D_n."""
    check_order(p.n, "chromatic")
    return chromatic_polynomial(hasse_graph(p))


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
