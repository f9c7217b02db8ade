import ast
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dyckposet import (chromatic, incidence, parking, paths, poset, qt,
                       tableaux)
from dyckposet.cli import (COMMANDS, EXIT_INTERNAL, EXIT_LIMIT, EXIT_MISMATCH,
                           EXIT_OK, EXIT_USAGE, build_parser, main)
from dyckposet.config import MAX_ORDER
from dyckposet.oeis import REGISTRY
from dyckposet.polynomials import BiPoly, UniPoly
from pinned import AT_LIMIT, PINNED

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dyckposet"
README = ROOT / "README.md"
GOLDEN = ROOT / "bench" / "golden" / "stdout.json"
# the benchmark's captured exit code and stdout of each CLI op, read only
GOLDEN_OPS = json.loads(GOLDEN.read_text())["ops"]

# every subcommand that takes an order, with the jobs it runs
JOBS = {
    ("catalan",): ("counts",),
    ("poset",): ("paths", "antichains"),
    ("parking",): ("counts",),
    ("chains",): ("paths",),
    ("antichains", "--mode", "all"): ("paths", "antichains"),
    ("antichains", "--mode", "maximal"): ("paths", "maximal_antichains"),
    ("antichains", "--mode", "maximum"): ("paths", "antichains"),
    ("qt",): ("paths",),
    ("chromatic",): ("paths", "chromatic"),
}
# the refused cases that the limits have since admitted; each keeps its case
# number unused, so that every other case keeps its id
ADMITTED = {(("poset",), 6), (("chains",), 8)}


def _refused_cases():
    """Each order a subcommand refuses, with an id that numbers the case in
    JOBS order, gaps for the ADMITTED cases included."""
    cases, number = [], 0
    for command, jobs in JOBS.items():
        for n in list(range(10)) + [1001]:
            refused = n > min(MAX_ORDER[job] for job in jobs)
            if refused:
                cases.append(pytest.param(command, n,
                                          id=f"command{number}-{n}"))
            if refused or (command, n) in ADMITTED:
                number += 1
    return cases


REFUSED = _refused_cases()


def _job_names(node):
    """The job names an argument of check_order or a MAX_ORDER key can
    take: a string constant, or either branch of a conditional."""
    if isinstance(node, ast.IfExp):
        return _job_names(node.body) | _job_names(node.orelse)
    assert isinstance(node, ast.Constant) and isinstance(node.value, str), \
        ast.unparse(node)
    return {node.value}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "catalan", "--n", "4")
        assert code == EXIT_OK
        assert json.loads(out)["catalan_closed"] == "14"

    def test_limit_exceeded(self, capsys):
        code, out, err = run_cli(capsys, "poset", "--n", "9")
        assert code == EXIT_LIMIT
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ("poset", "--n", "3", "--max-n", "3"),
        ("chromatic", "--n", "5", "--allow-large"),
    ])
    def test_removed_limit_flags_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_internal_fault(self, capsys, monkeypatch):
        def fault(args):
            raise RuntimeError("boom")
        monkeypatch.setitem(COMMANDS, "catalan", fault)
        code, out, err = run_cli(capsys, "catalan", "--n", "3")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert "error:" in err

    def test_value_error_fault_is_internal(self, capsys, monkeypatch):
        # only the input checks map to exit 2, not any ValueError
        def fault(args):
            raise ValueError("boom")
        monkeypatch.setitem(COMMANDS, "catalan", fault)
        code, out, err = run_cli(capsys, "catalan", "--n", "3")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert "error:" in err

    def test_render_fault_prints_nothing(self, capsys, monkeypatch):
        monkeypatch.setitem(COMMANDS, "catalan",
                            lambda args: [("order", 1), ("bad", object())])
        code, out, _ = run_cli(capsys, "catalan", "--n", "1")
        assert code == EXIT_INTERNAL
        assert out == ""

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("verify", "--sequence", "A000108", "--n", "-3"),
        ("catalan", "--n", "-1"),
        ("poset", "--n", "-1"),
        ("chains", "--n", "-1"),
        ("antichains", "--n", "-1"),
        ("qt", "--n", "-2"),
        ("chromatic", "--n", "-1"),
        ("parking", "--n", "-1"),
    ])
    def test_negative_order_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_verify_pass_and_fail(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "verify", "--sequence", "A000108")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] == "yes"

        import dyckposet.oeis as oeis_mod
        compute = oeis_mod.REGISTRY["A005700"].compute
        monkeypatch.setitem(oeis_mod._COMPUTE, "A005700",
                            lambda n: compute(n) + 1)
        code, out, _ = run_cli(capsys, "verify", "--sequence", "A005700",
                               "--n", "2")
        assert code == EXIT_MISMATCH
        assert json.loads(out)["passed"] == "no"


# the orders span every cap; each one a cap admits runs in under 0.5 s,
# poset --n 6 the slowest
ORDER_TOKENS = [str(n) for n in range(-1, 10)] + ["", "x", "2.5", "0x3"]
MODES = ["all", "maximal", "maximum", "bogus"]
SEQUENCES = sorted(REGISTRY) + ["A000000"]


@st.composite
def _argv(draw):
    """An argv that is mostly well formed: the options its subcommand
    takes, at times one of them left out or one that does not belong."""
    argv = list(draw(st.sampled_from(
        [(), ("--format", "json"), ("--format", "csv")])))
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv.append(command)
    options = {"--n": ORDER_TOKENS, "--mode": MODES, "--sequence": SEQUENCES}
    takes = ["--n"] + {"antichains": ["--mode"],
                       "verify": ["--sequence"]}.get(command, [])
    for name in takes + draw(st.lists(st.sampled_from(sorted(options)),
                                      max_size=1)):
        if draw(st.integers(0, 9)):
            argv += [name, draw(st.sampled_from(options[name]))]
    return argv


@given(_argv())
@settings(max_examples=60, deadline=None)
def test_exit_code_contract(argv):
    # exit 0 prints a parseable table; any other exit prints nothing, and
    # no argv reaches an internal fault
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code != EXIT_INTERNAL, err.getvalue()
    if code != EXIT_OK:
        assert out.getvalue() == ""
    elif argv[:2] == ["--format", "csv"]:
        header, *rows = csv.reader(io.StringIO(out.getvalue()), strict=True)
        assert header == ["quantity", "value"]
        assert rows and all(len(row) == 2 for row in rows)
    else:
        assert json.loads(out.getvalue())


class TestParserReuse:
    """Every main call parses with the one cached parser; no call may leave
    a value behind for the next."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_mode_falls_back_to_its_default(self, capsys):
        run_cli(capsys, "antichains", "--n", "2", "--mode", "maximal")
        code, out, _ = run_cli(capsys, "antichains", "--n", "2")
        assert code == EXIT_OK
        assert json.loads(out)["mode"] == "all"

    def test_verify_order_falls_back_to_the_snapshot(self, capsys):
        run_cli(capsys, "verify", "--sequence", "A000108", "--n", "2")
        code, out, _ = run_cli(capsys, "verify", "--sequence", "A000108")
        assert code == EXIT_OK
        # indices 0..max_order
        assert json.loads(out)["checked"] == \
            str(REGISTRY["A000108"].max_order + 1)

    def test_format_falls_back_to_json(self, capsys):
        run_cli(capsys, "--format", "csv", "catalan", "--n", "2")
        _, out, _ = run_cli(capsys, "catalan", "--n", "2")
        assert json.loads(out)["order"] == "2"

    def test_usage_error_leaves_the_next_call_intact(self, capsys):
        with pytest.raises(SystemExit):
            main(["antichains", "--n", "2", "--mode", "bogus"])
        code, out, _ = run_cli(capsys, "antichains", "--n", "2")
        assert code == EXIT_OK
        assert json.loads(out)["mode"] == "all"

    def test_paths_are_built_anew_on_every_call(self, capsys, monkeypatch):
        # a memo of half paths shared between calls would sweep fewer the
        # second time
        swept = []

        def counted(n):
            swept.append(n)
            return paths._halves(n)

        monkeypatch.setattr(parking, "_halves", counted)
        monkeypatch.setattr(poset, "_halves", counted)
        for command in ("parking", "poset"):
            assert run_cli(capsys, command, "--n", "4")[0] == EXIT_OK
            assert run_cli(capsys, command, "--n", "4")[0] == EXIT_OK
        assert swept == [4, 4, 4, 4]


def _wrap(owner, attr, make):
    """A patch that replaces owner.attr by make(original)."""
    return lambda monkeypatch: monkeypatch.setattr(
        owner, attr, make(getattr(owner, attr)))


def _plus_one(owner, attr):
    return _wrap(owner, attr, lambda f: lambda *args: f(*args) + 1)


def _antichain_size_plus_one(k):
    def make(sizes):
        def broken(p):
            c = list(sizes(p))
            c[k] += 1
            return tuple(c)
        return broken
    return _wrap(poset, "_antichain_sizes", make)


def _top_cut_off(build):
    """build_poset with its top made incomparable to every other element:
    no lower cover, a down-set of itself alone."""
    def broken(n):
        p = build(n)
        return p._replace(lower=p.lower[:-1] + ((),),
                          down=p.down[:-1] + (1 << p.size - 1,))
    return broken


def _one_cover_twice(build):
    """build_poset with the top's first lower cover listed twice: the same
    order, one cover edge more in the count read off the cover lists."""
    def broken(n):
        p = build(n)
        return p._replace(lower=p.lower[:-1] + (p.lower[-1] * 2,))
    return broken


def _break_carlitz(inv, extra):
    """Add extra to the Carlitz recurrence of the inv shift (k + 1)(m - k),
    or else of the area shift k: at k = 0, m = 1 only the inv shift is not
    0."""
    def make(carlitz):
        def broken(n, shift):
            poly = carlitz(n, shift)
            return poly + extra if bool(shift(0, 1)) == inv else poly
        return broken
    return _wrap(qt, "_carlitz", make)


def _one_more_path(attr):
    """One more path of area 1 and bounce 1 on the qt route attr."""
    return _wrap(qt, attr, lambda f: lambda *args:
                 f(*args) + BiPoly({(1, 1): 1}))


def _cross_check(name, argv, *patches):
    """A table row: with every patch applied, the agree check called name
    fails, and argv exits 4 with empty stdout."""
    def test(self, capsys, monkeypatch):
        for patch in patches:
            patch(monkeypatch)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INTERNAL
        assert out == ""
        assert f"{name} disagree: " in err
    test.check_name = name
    return test


class TestCrossChecks:
    """The table of checks: one row per way of breaking an agree check, and
    at least one row per check name in src/."""

    test_catalan_routes_must_agree = _cross_check(
        "Catalan closed form and recurrence", ("catalan", "--n", "4"),
        _plus_one(paths, "catalan_recurrence"))
    # the reflection count C(2n, n - 1) one higher; no other binomial of
    # the command has a = 2b + 2
    test_bad_paths_must_match_the_complement = _cross_check(
        "bad paths by reflection and by complement", ("catalan", "--n", "4"),
        _wrap(paths, "comb", lambda f: lambda a, b:
              f(a, b) + (a == 2 * b + 2)))
    # D_3 has rank sizes 1;1;2;1 from the top: read upside down, they keep
    # the right total
    test_rank_sizes_must_match_the_poset = _cross_check(
        "rank sizes by recurrence and by the poset's rank histogram",
        ("poset", "--n", "3"),
        _wrap(poset, "rank_sizes", lambda f: lambda n: f(n)[::-1]))
    test_ideal_count_must_match_the_antichains = _cross_check(
        "order ideal and antichain counts", ("poset", "--n", "3"),
        _plus_one(poset, "order_ideal_count"))
    # the top of D_3 has one lower cover, so it is counted twice
    test_cover_edges_must_match_the_valleys = _cross_check(
        "cover edges and the valley count C(2n-1, n-2)",
        ("poset", "--n", "3"), _wrap(poset, "build_poset", _one_cover_twice))
    test_chromatic_edges_must_match_the_valleys = _cross_check(
        "cover edges and the valley count C(2n-1, n-2)",
        ("chromatic", "--n", "3"),
        _wrap(poset, "build_poset", _one_cover_twice))
    test_chromatic_vertices_must_match_catalan = _cross_check(
        "Hasse diagram vertices and the Catalan number",
        ("chromatic", "--n", "3"), _plus_one(chromatic, "catalan_closed"))
    test_two_colourings_must_be_two = _cross_check(
        "2-colourings of the Hasse diagram and two", ("chromatic", "--n", "3"),
        _plus_one(chromatic, "chromatic_polynomial"))
    test_antichain_cover_must_match_the_ranks = _cross_check(
        "minimum antichain cover and the C(n, 2) + 1 rank levels",
        ("poset", "--n", "3"), _plus_one(poset, "min_antichain_cover"))
    # the closed form C_n C_{n+2} - C_{n+1}^2 moves by 5 + 42 - 2 * 14 at n = 3
    test_interval_count_must_match_the_closed_form = _cross_check(
        "interval counts by down-sets and by closed form",
        ("poset", "--n", "3"), _plus_one(incidence, "catalan_closed"))
    test_width_must_match_dilworth = _cross_check(
        "widths by antichain sizes and by Dilworth matching",
        ("antichains", "--n", "3"), _plus_one(poset, "min_chain_cover"))
    # a width one short on both routes, n = 4 having rank levels up to 3;
    # the 1- and 2-element counts hold
    test_width_must_reach_the_largest_rank_level = _cross_check(
        "width and the largest rank level",
        ("antichains", "--n", "4", "--mode", "maximum"),
        _wrap(poset, "_antichain_sizes",
              lambda f: lambda p: f(p)[:-1]),
        _wrap(poset, "min_chain_cover", lambda f: lambda p: f(p) - 1))
    test_one_element_antichains_must_match_the_size = _cross_check(
        "1-element antichains and C_n", ("antichains", "--n", "3"),
        _antichain_size_plus_one(1))
    test_two_element_antichains_must_match_the_pairs = _cross_check(
        "2-element antichains and incomparable pairs by closed form",
        ("antichains", "--n", "3"), _antichain_size_plus_one(2))
    # the census of such an order agrees with itself (12 antichains, 5 of
    # size 2, width 3 by Dilworth's cover too, which reads the same
    # down-sets): only a count that reads no poset catches it
    test_a_wrong_order_must_fail_the_pair_count = _cross_check(
        "2-element antichains and incomparable pairs by closed form",
        ("antichains", "--n", "3"), _wrap(poset, "build_poset",
                                          _top_cut_off))
    # one 1-element chain more, so the totals differ too
    test_total_chains_must_agree = _cross_check(
        "chain polynomials by chain DP and by k-fans", ("chains", "--n", "3"),
        _wrap(incidence, "fan_chain_polynomial", lambda f: lambda n:
              f(n) + UniPoly({1: 1})))
    # a chain moved from t to t^2: the total and the top coefficient hold
    test_interior_chain_coefficients_must_match_the_fans = _cross_check(
        "chain polynomials by chain DP and by k-fans", ("chains", "--n", "6"),
        _wrap(incidence, "chain_polynomial", lambda f: lambda p:
              f(p) + UniPoly({1: -1, 2: 1})))
    test_maximal_chains_must_match_the_hook_formula = _cross_check(
        "maximal chain counts by solve, by chain DP and by hook lengths",
        ("chains", "--n", "3"), _plus_one(tableaux, "staircase_maxchain"))
    test_qt_bounce_recurrence_must_agree = _cross_check(
        "q,t-Catalan path sum and the bounce recurrence", ("qt", "--n", "4"),
        _one_more_path("_bounce_recurrence"))
    # the extra path on both polynomial routes, so they still agree
    test_qt_count_must_match_catalan = _cross_check(
        "q,t-Catalan value at (1, 1) and the Catalan number",
        ("qt", "--n", "4"),
        _one_more_path("qt_catalan"), _one_more_path("_bounce_recurrence"))
    test_qt_partition_sum_must_agree = _cross_check(
        "q,t-Catalan path sum and the partition sum at GH_CHECK_POINT",
        ("qt", "--n", "4"), _plus_one(qt, "gh_evaluate"))
    # area 1 gains a path that area 2 loses
    test_qt_area_must_match_the_recurrence = _cross_check(
        "area q-analog path sum and recurrence", ("qt", "--n", "4"),
        _break_carlitz(False, BiPoly({(1, 0): 1, (2, 0): -1})))
    test_qt_inv_must_match_the_reversed_area = _cross_check(
        "inv q-analog recurrence and reversed area recurrence",
        ("qt", "--n", "4"), _break_carlitz(True, BiPoly({(1, 0): 1})))
    # the maj of every path one higher: the maj analog times q
    test_qt_maj_must_match_the_quotient = _cross_check(
        "maj q-analog C_n(q, 1/q) and quotient", ("qt", "--n", "4"),
        _wrap(qt, "_checked_maj", lambda f: lambda n, maj, *rest:
              f(n, maj * BiPoly({(1, 0): 1}), *rest)))
    # one labelling more on every path
    test_parking_counts_must_agree = _cross_check(
        "parking counts by closed form, filter and labelled paths",
        ("parking", "--n", "3"), _plus_one(parking, "_labellings"))
    test_parking_filter_must_agree = _cross_check(
        "parking counts by closed form, filter and labelled paths",
        ("parking", "--n", "3"), _plus_one(parking, "count_parking_by_filter"))
    # a group more than C_n; a word dropped from the groups would drop its
    # labellings from the count, whose check runs first
    test_content_groups_must_match_catalan = _cross_check(
        "content groups and the Catalan number", ("parking", "--n", "3"),
        _plus_one(parking, "catalan_closed"))
    # no command walks a chain into a filling; the chain (0, 4) of D_3
    # skips covers
    test_cover_step_must_add_one_cell = _cross_check(
        "cells added by a cover step and one", ("catalan", "--n", "3"),
        lambda monkeypatch: monkeypatch.setitem(
            COMMANDS, "catalan", lambda args: tableaux._chain_to_filling(
                paths.enumerate_paths(3), (0, 4))))

    def test_every_agree_name_has_one_call_site_and_a_row(self):
        names = []
        for path in SRC.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and \
                        getattr(node.func, "id", None) == "agree":
                    first = node.args[0]
                    assert isinstance(first, ast.Constant) and \
                        isinstance(first.value, str), (path, node.lineno)
                    names.append(first.value)
        assert [name for name, uses in Counter(names).items()
                if uses > 1] == []
        rows = {row.check_name for row in vars(TestCrossChecks).values()
                if hasattr(row, "check_name")}
        assert set(names) == rows

    def test_no_assertion_raised_outside_the_helper(self):
        for path in SRC.glob("*.py"):
            if path.name == "checks.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) \
                        else node.exc
                    assert getattr(exc, "id", None) != "AssertionError", \
                        (path, node.lineno)


def _refuse_paths(monkeypatch):
    """Make both DyckPath constructors raise: the word parser, and
    from_north_offsets, which enumerate_paths calls and which bypasses
    __init__."""
    def refuse(*args):
        raise AssertionError(f"a DyckPath built from {args[-1]!r}")
    monkeypatch.setattr(paths.DyckPath, "__init__", refuse)
    monkeypatch.setattr(paths.DyckPath, "from_north_offsets", refuse)


def _forbid_path_enumeration(monkeypatch):
    """Make every binding of enumerate_paths and of paths._halves raise."""
    def refuse(n):
        raise AssertionError(f"paths of order {n} enumerated")
    originals = (paths.enumerate_paths, paths._halves)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "dyckposet":
            continue
        for attr, value in list(vars(module).items()):
            if any(value is original for original in originals):
                monkeypatch.setattr(module, attr, refuse)


class TestOrderLimits:
    @pytest.mark.parametrize("command, n", REFUSED)
    def test_refused_before_any_work(self, capsys, monkeypatch, command, n):
        _forbid_path_enumeration(monkeypatch)
        code, out, err = run_cli(capsys, command[0], "--n", str(n),
                                 *command[1:])
        assert code == EXIT_LIMIT
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("sequence", sorted(REGISTRY))
    def test_verify_refuses_past_snapshot(self, capsys, monkeypatch,
                                          sequence):
        _forbid_path_enumeration(monkeypatch)
        n = REGISTRY[sequence].max_order + 1
        code, out, _ = run_cli(capsys, "verify", "--sequence", sequence,
                               "--n", str(n))
        assert code == EXIT_USAGE
        assert out == ""

    def test_counts_at_limit(self, capsys):
        code, out, _ = run_cli(capsys, "catalan", "--n", "1000")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["catalan_recurrence"] == payload["catalan_closed"]

    def test_parking_census_stops_at_limit(self, capsys):
        _, out, _ = run_cli(capsys, "parking", "--n", "9")
        assert json.loads(out) == {"order": "9", "count_closed": "100000000"}

    def test_parking_below_its_top_order(self, capsys):
        code, out, _ = run_cli(capsys, "parking", "--n", "7")
        assert code == PINNED["parking --n 7"]["exit"]
        assert out == PINNED["parking --n 7"]["stdout"]

    def test_qt_builds_no_path_and_sweeps_halves_once(self, capsys,
                                                      monkeypatch):
        _refuse_paths(monkeypatch)
        swept = []

        def counted(n):
            swept.append(n)
            return paths._halves(n)
        monkeypatch.setattr(qt, "_halves", counted)
        assert run_cli(capsys, "qt", "--n", "5")[0] == EXIT_OK
        assert swept == [5]

    def test_parking_sweeps_halves_once(self, capsys, monkeypatch):
        swept = []

        def counted(n):
            swept.append(n)
            return paths._halves(n)
        monkeypatch.setattr(parking, "_halves", counted)
        assert run_cli(capsys, "parking", "--n", "5")[0] == EXIT_OK
        assert swept == [5]

    def test_antichains_at_limit_fit_in_memory(self, capsys):
        # every order the table allows must run without exhausting memory;
        # listing the 37,620,704 antichains of D_6 took 2 GB.  The call
        # peaks near 1.3 MiB with the memo split a chain at a time over
        # elements relabelled chain by chain.  In the canonical order it
        # peaks near 32 MiB split the same way (186,905 states) and near
        # 16.7 MiB split an element at a time (94,012 states), so the bound
        # also catches a return to either
        golden = GOLDEN_OPS["antichains --n 6"]
        assert MAX_ORDER["antichains"] == 6
        tracemalloc.start()
        try:
            code = main(["antichains", "--n", "6"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == golden["exit"] == EXIT_OK
        assert capsys.readouterr().out == golden["stdout"]
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("argv, job, mib", AT_LIMIT)
    def test_job_at_limit_fits_in_memory(self, capsys, argv, job, mib):
        op = " ".join(argv)
        expected = GOLDEN_OPS[op] if op in GOLDEN_OPS else PINNED[op]
        assert MAX_ORDER[job] == int(argv[argv.index("--n") + 1])
        tracemalloc.start()
        try:
            code = main(list(argv))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == expected["exit"] == EXIT_OK
        assert capsys.readouterr().out == expected["stdout"]
        assert peak < mib * 2**20

    def test_every_job_name_is_a_table_key(self):
        # a stale name would surface only as a KeyError, exit 4, once its
        # branch runs; config's own lookup reads the name it is passed
        named = set()
        for path in [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
            for node in ast.walk(ast.parse(path.read_text())):
                func = getattr(node, "func", None)
                if isinstance(node, ast.Call) and "check_order" in (
                        getattr(func, "id", None), getattr(func, "attr", None)):
                    for arg in node.args[1:]:
                        named |= _job_names(arg)
                elif isinstance(node, ast.Subscript) and \
                        getattr(node.value, "id", None) == "MAX_ORDER" and \
                        path.name != "config.py":
                    named |= _job_names(node.slice)
        assert named == set(MAX_ORDER)

    def test_readme_table_matches(self):
        text = README.read_text().split("## Order limits", 1)[1]
        section = text.split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \|.*\| (\d+) \|[^|]*\|$", section,
                          re.MULTILINE)
        assert {job: int(n) for job, n in rows} == MAX_ORDER
        assert len(rows) == len(MAX_ORDER)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("catalan", "--n", "6"),
        ("poset", "--n", "3"),
        ("chains", "--n", "3"),
        ("antichains", "--n", "3", "--mode", "maximal"),
        ("qt", "--n", "4"),
        ("chromatic", "--n", "3"),
        ("parking", "--n", "3"),
        ("verify", "--sequence", "A129176", "--n", "5"),
    ])
    def test_two_runs_byte_identical(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        assert out1.encode() == out2.encode()

    @pytest.mark.parametrize("op", ["--format csv chains --n 3",
                                    "--format csv qt --n 3"])
    def test_polynomial_csv_is_pinned(self, capsys, op):
        code, out, _ = run_cli(capsys, *op.split())
        assert code == PINNED[op]["exit"]
        assert out == PINNED[op]["stdout"]

    @pytest.mark.parametrize("op", sorted(GOLDEN_OPS))
    def test_matches_the_benchmark_capture(self, capsys, op):
        code, out, _ = run_cli(capsys, *op.split())
        assert code == GOLDEN_OPS[op]["exit"]
        assert out == GOLDEN_OPS[op]["stdout"]

    def test_no_op_builds_a_path(self, capsys, monkeypatch):
        # every command reads the half paths of paths._halves
        _refuse_paths(monkeypatch)
        for op, golden in GOLDEN_OPS.items():
            code, out, err = run_cli(capsys, *op.split())
            assert (code, out) == (golden["exit"], golden["stdout"]), \
                (op, err)

    def test_stdout_does_not_depend_on_the_hash_seed(self):
        # set and dict order of str keys moves with the hash seed, which the
        # in-process runs above share; the six runs go at once
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        runs = {(argv, seed): subprocess.Popen(
                    [sys.executable, "-m", "dyckposet.cli", *argv],
                    env=dict(env, PYTHONHASHSEED=seed),
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for argv in (("qt", "--n", "8"),
                             ("antichains", "--n", "5", "--mode", "maximal"),
                             ("--format", "csv", "antichains", "--n", "6"))
                for seed in ("1", "12345")}
        outs = {}
        for (argv, seed), run in runs.items():
            out, err = run.communicate(timeout=60)
            assert run.returncode == EXIT_OK, (argv, seed, err)
            outs.setdefault(argv, set()).add(out)
        assert all(len(seen) == 1 and b"" not in seen
                   for seen in outs.values()), outs

    def test_csv_and_json_agree(self, capsys):
        # the A141622 and A000272 descriptions hold a comma
        for argv in (("catalan", "--n", "5"),
                     ("verify", "--sequence", "A141622"),
                     ("verify", "--sequence", "A000272")):
            _, json_out, _ = run_cli(capsys, *argv)
            _, csv_out, _ = run_cli(capsys, "--format", "csv", *argv)
            payload = json.loads(json_out)
            header, *rows = csv.reader(io.StringIO(csv_out))
            assert header == ["quantity", "value"]
            assert all(len(row) == 2 for row in rows), argv
            assert dict(rows) == payload
        assert payload["description"] == \
            "parking function counts, shifted by one"


# the keys each command's output is documented to carry
GUARANTEED_KEYS = {
    "catalan": ("catalan_closed", "catalan_recurrence"),
    "poset": ("size", "interval_count", "rank_sizes", "order_ideal_count",
              "width", "min_chain_cover", "min_antichain_cover"),
    "chains": ("total_chains", "maximal_chains", "chain_polynomial"),
    "antichains": ("total",),
    "qt": ("qt_catalan", "area_analog", "inv_analog", "maj_analog",
           "symmetric"),
    "chromatic": ("chromatic_polynomial",),
    "parking": ("count_closed",),
    "verify": ("sequence", "checked", "passed"),
}


class TestCoverage:
    def test_every_command_registered(self):
        assert set(COMMANDS) == set(GUARANTEED_KEYS)
        assert set(COMMANDS) == {"catalan", "poset", "chains", "antichains",
                                 "qt", "chromatic", "parking", "verify"}

    @pytest.mark.parametrize("command", sorted(GUARANTEED_KEYS))
    def test_guaranteed_quantities_emitted(self, capsys, command):
        argv = {"verify": ("verify", "--sequence", "A000108", "--n", "4")} \
            .get(command, (command, "--n", "3"))
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        payload = json.loads(out)
        for key in GUARANTEED_KEYS[command]:
            assert key in payload, (command, key)

    def test_cli_reads_no_private_name_of_another_module(self):
        # each check lives in its layer: cli formats what the layers return
        tree = ast.parse((SRC / "cli.py").read_text())
        imports = [(node.module, alias) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   for alias in node.names]
        # from . import qt binds modules; from .qt import x binds names
        modules = {alias.asname or alias.name
                   for module, alias in imports if module is None}
        assert {"qt", "parking"} <= modules
        private = [alias.name for _module, alias in imports
                   if alias.name.startswith("_")]
        private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and node.attr.startswith("_")]
        assert private == []

    def test_cli_runs_no_check_of_its_own(self):
        # the layers run their two-route checks; cli formats what they return
        tree = ast.parse((SRC / "cli.py").read_text())
        calls = [getattr(node.func, "id", None) or
                 getattr(node.func, "attr", None)
                 for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert "agree" not in calls
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {alias.name for alias in node.names}
        assert imported & {"checks", "agree", "Counter", "comb"} == set()

    def test_polynomial_terms_are_lists(self, capsys):
        _, out, _ = run_cli(capsys, "qt", "--n", "3")
        payload = json.loads(out)
        assert payload["qt_catalan"] == [
            [0, 3, "1"], [1, 1, "1"], [1, 2, "1"], [2, 1, "1"], [3, 0, "1"]]
