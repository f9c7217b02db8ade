import random

import pytest

from dyckposet import (LimitExceededError, SimpleGraph, chromatic_polynomial,
                       count_colourings_brute, hasse_chromatic, hasse_graph)
from dyckposet.polynomials import UniPoly

CHROMATIC_TABLE = {
    0: UniPoly({1: 1}),
    1: UniPoly({1: 1}),
    2: UniPoly({2: 1, 1: -1}),
    3: UniPoly({5: 1, 4: -5, 3: 10, 2: -9, 1: 3}),
    4: UniPoly({14: 1, 13: -21, 12: 210, 11: -1321, 10: 5823, 9: -18968,
                8: 46908, 7: -89034, 6: 129490, 5: -142270, 4: 114532,
                3: -63791, 2: 21940, 1: -3499}),
}


def _random_graphs(count, max_vertices, seed):
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        v = rng.randint(1, max_vertices)
        pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
        edges = [p for p in pairs if rng.random() < 0.4]
        graphs.append(SimpleGraph.from_edges(v, edges))
    return graphs


# fixed inputs beside the random ones: the 0-vertex graph (polynomial 1),
# isolated vertices next to one edge, a 7-vertex star with its centre last
# (6 leaves on the frontier, 203 states) and K_{3,3} with interleaved labels
EDGE_CASE_GRAPHS = [
    SimpleGraph.from_edges(0, []),
    SimpleGraph.from_edges(4, [(1, 2)]),
    SimpleGraph.from_edges(7, [(leaf, 6) for leaf in range(6)]),
    SimpleGraph.from_edges(6, [(a, b) for a in (0, 2, 4) for b in (1, 3, 5)]),
]


def _relabelled(g, order):
    """g with vertex order[i] renamed to i."""
    rename = {old: new for new, old in enumerate(order)}
    return SimpleGraph.from_edges(
        g.vertex_count, [(rename[u], rename[v]) for u, v in g.edges])


def _assert_signs_alternate(poly):
    for e, c in poly.terms():
        assert c != 0
        assert (c > 0) == ((poly.degree - e) % 2 == 0)


class TestSimpleGraph:
    def test_rejects_loops_and_bad_edges(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            SimpleGraph(2, frozenset({(1, 0)}))
        with pytest.raises(ValueError):
            SimpleGraph(2, frozenset({(0, 2)}))

    @pytest.mark.parametrize("vertex_count", [-1, -3])
    def test_rejects_a_negative_vertex_count(self, vertex_count):
        # -1 used to build a graph whose chromatic polynomial read 1
        with pytest.raises(ValueError, match="non-negative"):
            SimpleGraph(vertex_count, frozenset())
        with pytest.raises(ValueError, match="non-negative"):
            SimpleGraph.from_edges(vertex_count, [])

    def test_from_edges_normalizes(self):
        g = SimpleGraph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})


class TestClosedForms:
    def test_empty_and_trees(self):
        assert chromatic_polynomial(SimpleGraph.from_edges(3, [])) == \
            UniPoly({3: 1})
        path5 = SimpleGraph.from_edges(5, [(i, i + 1) for i in range(4)])
        t = UniPoly.x()
        assert chromatic_polynomial(path5) == t * (t - 1) ** 4

    def test_complete_graphs(self):
        t = UniPoly.x()
        for v in range(1, 6):
            k = SimpleGraph.from_edges(
                v, [(i, j) for i in range(v) for j in range(i + 1, v)])
            falling = UniPoly.one()
            for i in range(v):
                falling = falling * (t - i)
            assert chromatic_polynomial(k) == falling

    def test_cycle(self):
        c5 = SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        poly = chromatic_polynomial(c5)
        # (t-1)^5 - (t-1) for the 5-cycle
        t = UniPoly.x()
        assert poly == (t - 1) ** 5 - (t - 1)


class TestBruteForceOracle:
    def test_random_graphs_small_k(self):
        for g in _random_graphs(30, 8, seed=11) + EDGE_CASE_GRAPHS:
            poly = chromatic_polynomial(g)
            for k in range(4):
                assert poly(k) == count_colourings_brute(g, k)

    def test_hasse_graphs_small_k(self, posets):
        for n in range(4):
            g = hasse_graph(posets(n))
            poly = chromatic_polynomial(g)
            for k in range(4):
                assert poly(k) == count_colourings_brute(g, k)


class TestHasseChromatic:
    @pytest.mark.parametrize("n", range(5))
    def test_table_values(self, n, posets):
        assert hasse_chromatic(posets(n)) == CHROMATIC_TABLE[n]

    def test_two_colourable(self, posets):
        # cover edges always change rank parity, so the Hasse graph is
        # bipartite: exactly two proper 2-colourings per connected component
        for n in range(2, 5):
            assert hasse_chromatic(posets(n))(2) == 2

    def test_gate(self, posets):
        with pytest.raises(LimitExceededError):
            hasse_chromatic(posets(5))

    def test_coefficient_signs_alternate(self, posets):
        _assert_signs_alternate(hasse_chromatic(posets(4)))

    def test_vertex_order_does_not_matter(self, posets):
        # the order sets only how many states the frontier DP carries
        g = hasse_graph(posets(4))
        shuffled = list(range(g.vertex_count))
        random.Random(3).shuffle(shuffled)
        for order in (shuffled, list(reversed(range(g.vertex_count)))):
            assert chromatic_polynomial(_relabelled(g, order)) == \
                CHROMATIC_TABLE[4]

    def test_order_five_past_the_gate(self, posets):
        # no independent source gives this row, so it is checked by what the
        # graph forces: 42 vertices, 84 cover edges, connected and bipartite
        g = hasse_graph(posets(5))
        poly = chromatic_polynomial(g)
        assert poly.degree == g.vertex_count == 42
        assert poly.coeffs[42] == 1
        assert poly.coeffs[41] == -len(g.edges) == -84
        assert poly(1) == 0
        assert poly(2) == 2
        _assert_signs_alternate(poly)
