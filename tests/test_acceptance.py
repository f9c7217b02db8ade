"""Acceptance gate: one test per criterion, each printing a PASS line, and
one that breaks the cover relation so that criterion 02 must fail.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
from math import comb

from dyckposet import (REGISTRY, SimpleGraph, catalan_closed,
                       catalan_recurrence, chain_polynomial,
                       chromatic_polynomial, cn_area, cn_inv, cn_maj,
                       count_colourings_brute, count_parking_functions,
                       enumerate_parking_functions, enumerate_paths,
                       gh_evaluate, gh_sample_points, hasse_chromatic,
                       interval_count, labelled_to_parking,
                       maximal_chain_count, maxchain_tableau_bijection_check,
                       min_chain_cover, mobius_matrix, parking_to_labelled,
                       ParkingFunction, qt_catalan, qt_specialize, rank_sizes,
                       staircase_maxchain, symmetry_check, total_chains,
                       vectors_of, zeta_matrix, ExactMatrix, area_from_parking,
                       antichain_census, verify_sequence)
from dyckposet.cli import main as cli_main
from dyckposet.polynomials import BiPoly, UniPoly
from oracles import invert_unitriangular


def _report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_01_catalan_triple_agreement(posets):
    values = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for n in range(9):
        assert catalan_closed(n) == values[n]
        assert catalan_recurrence(n) == values[n]
        assert len(enumerate_paths(n)) == values[n]
    _report(1, "closed form, recurrence, and enumeration agree for n=0..8")


def test_criterion_02_zeta_mobius(posets):
    assert zeta_matrix(posets(3)).rows == [
        [1, 1, 1, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 1, 1],
        [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]
    assert mobius_matrix(posets(3)).rows == [
        [1, -1, -1, 1, 0], [0, 1, 0, -1, 0], [0, 0, 1, -1, 0],
        [0, 0, 0, 1, -1], [0, 0, 0, 0, 1]]
    for n in range(6):
        p = posets(n)
        assert zeta_matrix(p) @ mobius_matrix(p) == \
            ExactMatrix.identity(p.size)
    _report(2, "reference D_3 matrices reproduced; zeta*mu = delta for n<=5")


def test_criterion_02_fails_on_a_dropped_cover(posets):
    # the cover 0 < 1 of D_3 taken out of lower alone: the ideals, and so
    # zeta, stay, but mu is read off the covers, so the product moves
    p = posets(3)
    assert p.lower[1] == (0,)
    dropped = p._replace(lower=p.lower[:1] + ((),) + p.lower[2:])
    zeta = zeta_matrix(dropped)
    assert zeta == zeta_matrix(p)
    assert zeta @ mobius_matrix(dropped) != ExactMatrix.identity(5)
    assert mobius_matrix(dropped) != invert_unitriangular(zeta)


def test_criterion_03_interval_counts(posets):
    expected = [1, 3, 14, 84, 594]
    for n in range(1, 6):
        assert interval_count(posets(n)) == expected[n - 1]
    assert verify_sequence("A005700", 5).passed
    _report(3, "interval counts (1,3,14,84,594) match the bundled snapshot")


def test_criterion_04_total_chains(posets):
    expected = [1, 2, 4, 24, 816, 239968]
    for n in range(6):
        assert total_chains(posets(n)) == expected[n]
    assert chain_polynomial(posets(3)) == UniPoly.from_list(
        [1, 5, 9, 7, 2])
    assert chain_polynomial(posets(4)) == UniPoly.from_list(
        [1, 14, 70, 176, 249, 202, 88, 16])
    _report(4, "total chains n=0..5 and chain polynomials n=3,4 match "
               "reference values")


def test_criterion_05_maximal_chains(posets):
    expected = [1, 1, 1, 2, 16, 768]
    for n in range(6):
        p = posets(n)
        count = maximal_chain_count(p)  # also checks the chain DP
        assert count == expected[n]
        assert chain_polynomial(p).coeffs[comb(n, 2) + 1] == count
        if n >= 1:
            assert staircase_maxchain(n) == count
    for n in range(1, 5):
        assert maxchain_tableau_bijection_check(n)
    _report(5, "matrix, polynomial, and hook-length routes give "
               "(1,1,1,2,16,768); tableau bijection holds for n<=4")


def test_criterion_06_antichain_censuses(posets):
    totals = [2, 2, 3, 7, 42, 2361]
    maximal = [1, 1, 2, 4, 17, 379]
    maximum = [(1, 1), (1, 1), (1, 2), (2, 1), (3, 6), (7, 2)]
    for n in range(6):
        p = posets(n)
        assert antichain_census(p).total == totals[n]
        assert antichain_census(p, "maximal").total == maximal[n]
        census = antichain_census(p, "maximum")
        assert (census.width, census.total) == maximum[n]
        assert min_chain_cover(p) == census.width
    _report(6, "antichain totals, maximal and maximum censuses, and "
               "Dilworth check hold for n=0..5")


def test_criterion_07_q_analogs():
    assert cn_area(3) == BiPoly({(0, 0): 1, (1, 0): 2, (2, 0): 1, (3, 0): 1})
    assert cn_inv(3) == BiPoly({(0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1})
    assert cn_maj(3) == BiPoly({(0, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1,
                                (6, 0): 1})
    triangle = [
        (1,), (1,), (1, 1), (1, 1, 2, 1), (1, 1, 2, 3, 3, 3, 1),
        (1, 1, 2, 3, 5, 5, 7, 7, 6, 4, 1),
        (1, 1, 2, 3, 5, 7, 9, 11, 14, 16, 16, 17, 14, 10, 5, 1),
        (1, 1, 2, 3, 5, 7, 11, 13, 18, 22, 28, 32, 37, 40, 44, 43, 40, 35,
         25, 15, 6, 1),
    ]
    for n in range(8):
        assert rank_sizes(n) == triangle[n]
    _report(7, "area/inv/maj q-analogs at n=3 and rank-size rows n<=7 match")


def test_criterion_08_qt_catalan():
    for n in range(6):
        poly = qt_catalan(n)
        if n == 5:
            assert poly.coeffs[(6, 2)] == 2
        assert symmetry_check(n)
        for q0, t0 in gh_sample_points(n, 25):
            assert gh_evaluate(n, q0, t0) == poly.evaluate_exact(q0, t0)
    for n in range(7):
        assert qt_specialize(n, "area") == cn_area(n)
        assert qt_specialize(n, "maj") == cn_maj(n)
        assert qt_specialize(n, "count") == catalan_closed(n)
    _report(8, "q,t-Catalan values, symmetry, specializations, and 25 exact "
               "rational evaluations per order all agree")


def test_criterion_09_chromatic(posets):
    table = {
        0: UniPoly({1: 1}),
        1: UniPoly({1: 1}),
        2: UniPoly({2: 1, 1: -1}),
        3: UniPoly({5: 1, 4: -5, 3: 10, 2: -9, 1: 3}),
        4: UniPoly({14: 1, 13: -21, 12: 210, 11: -1321, 10: 5823, 9: -18968,
                    8: 46908, 7: -89034, 6: 129490, 5: -142270, 4: 114532,
                    3: -63791, 2: 21940, 1: -3499}),
    }
    for n in range(5):
        assert hasse_chromatic(posets(n)) == table[n]
    rng = random.Random(7)
    for _ in range(20):
        v = rng.randint(1, 8)
        pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
        g = SimpleGraph.from_edges(
            v, [p for p in pairs if rng.random() < 0.4])
        poly = chromatic_polynomial(g)
        for k in range(4):
            assert poly(k) == count_colourings_brute(g, k)
    _report(9, "chromatic polynomials n=0..4 (degree-14 row verbatim) and "
               "brute-force colouring oracle agree")


def test_criterion_10_parking():
    assert [count_parking_functions(n) for n in range(6)] == \
        [1, 1, 3, 16, 125, 1296]
    for n in range(5):
        for f in enumerate_parking_functions(n):
            assert labelled_to_parking(parking_to_labelled(f)) == f
    for n in range(6):
        for f in enumerate_parking_functions(n):
            assert area_from_parking(f) == parking_to_labelled(f).path.area
    pair, columns = vectors_of(
        parking_to_labelled(ParkingFunction((2, 2, 4, 2, 1))))
    assert pair.g == (0, 0, 1, 2, 1)
    assert pair.p == (5, 1, 2, 4, 3)
    assert columns == (2, 2, 4, 2, 1)
    _report(10, "parking counts, exhaustive round-trips, area transfer, "
                "and the worked five-car example all hold")


def test_criterion_11_verify_and_determinism(capsys):
    for sequence_id in sorted(REGISTRY):
        report = verify_sequence(sequence_id, REGISTRY[sequence_id].max_order)
        assert report.passed, sequence_id
    outputs = []
    for _ in range(2):
        assert cli_main(["qt", "--n", "4"]) == 0
        assert cli_main(["verify", "--sequence", "A143674"]) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]
    json.loads(outputs[0].decode().splitlines()[0])
    _report(11, "all nine snapshots verify at full range; CLI output "
                "byte-identical across runs")
