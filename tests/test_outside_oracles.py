"""D_n checked against networkx, on a poset built from the paper's
definition alone: the N/E words of length 2n with no negative prefix height,
one path below another when each of its column heights is.  Nothing here
reads the path sweep or the masks of the package, so a mistake that both
routes of a two-route check share would show here.  The antichain
oracles of tests/oracles.py are checked here too, on masks read off the
networkx graph.  sympy inverts that poset's zeta matrix and divides
q-binomials, and networkx gives the chromatic polynomial of its Hasse
diagram.  networkx and sympy are imported plainly: a
missing package fails the module, it does not skip it."""

from collections import Counter
from itertools import combinations, product

import networkx as nx
import pytest
import sympy

from dyckposet import (antichain_census, build_poset, cn_maj,
                       cover_edge_count, hasse_chromatic, interval_count,
                       maximal_chain_count, maximal_chains, min_chain_cover,
                       mobius_matrix)
from oracles import antichain_extensions, maximal_antichains_by_size


def _words(n):
    """The Dyck words of order n in canonical order: ascending area, ties
    broken lexicographically with N < E, as product over "NE" lists them."""
    words = []
    for marks in product("NE", repeat=2 * n):
        height = 0
        for mark in marks:
            height += 1 if mark == "N" else -1
            if height < 0:
                break
        else:
            if height == 0:
                words.append(marks)
    return sorted(words, key=lambda marks: sum(_heights(marks)))


def _heights(marks):
    """The number of north steps before each east step."""
    heights = []
    norths = 0
    for mark in marks:
        if mark == "N":
            norths += 1
        else:
            heights.append(norths)
    return heights


def _order(n):
    """D_n as the DiGraph of its strict relations i < j, on the indices of
    _words(n)."""
    heights = [_heights(marks) for marks in _words(n)]
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(heights)))
    for i, j in combinations(range(len(heights)), 2):
        if all(map(int.__le__, heights[i], heights[j])):
            graph.add_edge(i, j)
        elif all(map(int.__le__, heights[j], heights[i])):
            graph.add_edge(j, i)
    return graph


@pytest.fixture(scope="module", params=range(1, 6))
def case(request):
    n = request.param
    order = _order(n)
    incomparable = nx.complement(order.to_undirected())
    return n, order, incomparable, build_poset(n)


def test_cover_edges(case):
    n, order, _, p = case
    covers = nx.transitive_reduction(order)
    assert sorted(covers.edges) == sorted(p.cover_edges())
    assert covers.number_of_edges() == cover_edge_count(p)


def test_interval_count(case):
    _, order, _, p = case
    assert order.number_of_nodes() + order.number_of_edges() == \
        interval_count(p)


def test_antichains_by_size(case):
    _, _, incomparable, p = case
    by_size = Counter(map(len, nx.enumerate_all_cliques(incomparable)))
    by_size[0] += 1  # the empty antichain
    census = antichain_census(p)
    assert census.by_size == dict(by_size)
    assert census.total == sum(by_size.values())


def test_maximal_antichains_by_size(case):
    _, _, incomparable, p = case
    by_size = Counter(map(len, nx.find_cliques(incomparable)))
    assert antichain_census(p, "maximal").by_size == dict(by_size)


def test_antichain_oracles(case):
    # the listing and Bron-Kerbosch oracles that test_poset compares the
    # package against, run on this module's graph
    _, _, incomparable, _ = case
    size = incomparable.number_of_nodes()
    inc = [sum(1 << j for j in incomparable[i]) for i in range(size)]
    listed = Counter(mask.bit_count()
                     for mask, _ in antichain_extensions(size, inc))
    cliques = Counter(map(len, nx.enumerate_all_cliques(incomparable)))
    cliques[0] += 1  # the empty antichain
    assert listed == cliques
    assert maximal_antichains_by_size(size, inc) == \
        Counter(map(len, nx.find_cliques(incomparable)))


def test_width(case):
    _, _, incomparable, p = case
    width = max(map(len, nx.find_cliques(incomparable)))
    assert antichain_census(p, "maximum").width == width == \
        min_chain_cover(p)


def test_maximal_chains(case):
    _, order, _, p = case
    covers = nx.transitive_reduction(order)
    chains = {tuple(path) for path in
              nx.all_simple_paths(covers, 0, order.number_of_nodes() - 1)}
    assert set(maximal_chains(p)) == chains
    assert maximal_chain_count(p) == len(chains)


@pytest.mark.parametrize("n", range(4))
def test_hasse_chromatic_is_the_networkx_polynomial(n):
    # networkx deletes and contracts edges: 10 ms at n = 3, minutes at n = 4
    hasse = nx.transitive_reduction(_order(n)).to_undirected()
    poly = sympy.Poly(nx.chromatic_polynomial(hasse), sympy.Symbol("x"))
    assert hasse_chromatic(build_poset(n)).coeffs == {
        e: c for (e,), c in poly.terms()}


def test_mobius_is_sympy_inverse_of_zeta():
    for n in range(5):
        order = _order(n)
        size = order.number_of_nodes()
        zeta = sympy.Matrix(size, size, lambda i, j:
                            int(i == j or order.has_edge(i, j)))
        assert zeta.inv().tolist() == mobius_matrix(build_poset(n)).rows


def test_maj_analog_is_the_sympy_quotient():
    # MacMahon: maj(q) = [2n choose n]_q / [n+1]_q, the q-binomial from its
    # product formula prod_{i=1}^{n} (1 - q^{n+i}) / (1 - q^i)
    q = sympy.Symbol("q")
    for n in range(9):
        binomial, rem = sympy.div(
            sympy.prod(1 - q ** (n + i) for i in range(1, n + 1)),
            sympy.prod(1 - q ** i for i in range(1, n + 1)), q)
        assert rem == 0
        quotient, rem = sympy.div(
            binomial, sum(q ** i for i in range(n + 1)), q)
        assert rem == 0
        assert cn_maj(n).coeffs == {
            (e, 0): c for (e,), c in sympy.Poly(quotient, q).terms()}
