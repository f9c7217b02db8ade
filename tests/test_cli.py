import json
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from dyckposet import paths, qt
from dyckposet.cli import (COMMANDS, EXIT_INTERNAL, EXIT_LIMIT, EXIT_MISMATCH,
                           EXIT_OK, EXIT_USAGE, GUARANTEED_KEYS, build_parser,
                           main)
from dyckposet.config import MAX_ORDER
from dyckposet.oeis import REGISTRY

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
GOLDEN = ROOT / "bench" / "golden" / "stdout.json"

# every subcommand that takes an order, with the jobs it runs
JOBS = {
    ("catalan",): ("counts",),
    ("poset",): ("paths", "antichains", "order_ideals"),
    ("parking",): ("counts",),
    ("chains",): ("paths", "chains"),
    ("antichains", "--mode", "all"): ("paths", "antichains"),
    ("antichains", "--mode", "maximal"): ("paths", "maximal_antichains"),
    ("antichains", "--mode", "maximum"): ("paths", "antichains"),
    ("qt",): ("paths",),
    ("chromatic",): ("paths", "chromatic"),
}
REFUSED = [(command, n) for command, jobs in JOBS.items()
           for n in list(range(10)) + [1001]
           if n > min(MAX_ORDER[job] for job in jobs)]


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
        entry = oeis_mod.REGISTRY["A005700"]
        broken = oeis_mod.SequenceEntry(
            entry.description, entry.kind, entry.index_of,
            lambda n: entry.compute(n) + 1, entry.max_order)
        monkeypatch.setitem(oeis_mod.REGISTRY, "A005700", broken)
        code, out, _ = run_cli(capsys, "verify", "--sequence", "A005700",
                               "--n", "2")
        assert code == EXIT_MISMATCH
        assert json.loads(out)["passed"] == "no"


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
        # a path memo shared between calls would build fewer the second time
        built = 0
        validate = paths.DyckPath.__post_init__

        def counted(self):
            nonlocal built
            built += 1
            validate(self)

        monkeypatch.setattr(paths.DyckPath, "__post_init__", counted)
        assert run_cli(capsys, "parking", "--n", "4")[0] == EXIT_OK
        once = built
        assert run_cli(capsys, "parking", "--n", "4")[0] == EXIT_OK
        assert once > 0
        assert built == 2 * once


class TestCrossChecks:
    """Each two-route check a command makes exits 4 with empty stdout when
    one route is broken."""

    def _assert_internal(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INTERNAL
        assert out == ""
        assert "disagree" in err

    def test_parking_counts_must_agree(self, capsys, monkeypatch):
        from dyckposet import parking
        enumerate_labelled = parking.enumerate_labelled_paths
        monkeypatch.setattr(parking, "enumerate_labelled_paths",
                            lambda n: enumerate_labelled(n)[1:])
        self._assert_internal(capsys, "parking", "--n", "3")

    def test_parking_filter_must_agree(self, capsys, monkeypatch):
        from dyckposet import parking
        count = parking.count_parking_by_filter
        monkeypatch.setattr(parking, "count_parking_by_filter",
                            lambda n: count(n) + 1)
        self._assert_internal(capsys, "parking", "--n", "3")

    def test_catalan_routes_must_agree(self, capsys, monkeypatch):
        recurrence = paths.catalan_recurrence
        monkeypatch.setattr(paths, "catalan_recurrence",
                            lambda n: recurrence(n) + 1)
        self._assert_internal(capsys, "catalan", "--n", "4")

    def test_qt_count_must_match_catalan(self, capsys, monkeypatch):
        from dyckposet.polynomials import BiPoly
        qt_catalan = qt.qt_catalan
        # one more path of area 1 and bounce 1: still symmetric
        monkeypatch.setattr(qt, "qt_catalan",
                            lambda n: qt_catalan(n) + BiPoly.monomial(1, 1))
        self._assert_internal(capsys, "qt", "--n", "4")

    def test_qt_partition_sum_must_agree(self, capsys, monkeypatch):
        gh_evaluate = qt.gh_evaluate
        monkeypatch.setattr(qt, "gh_evaluate",
                            lambda n, q0, t0: gh_evaluate(n, q0, t0) + 1)
        self._assert_internal(capsys, "qt", "--n", "4")

    def test_cover_edges_must_match_the_valleys(self, capsys, monkeypatch):
        from dyckposet import poset
        cover_edges = poset.DyckPoset.cover_edges
        monkeypatch.setattr(poset.DyckPoset, "cover_edges",
                            lambda p: cover_edges(p)[1:])
        self._assert_internal(capsys, "poset", "--n", "3")

    def test_antichain_cover_must_match_the_ranks(self, capsys,
                                                  monkeypatch):
        from dyckposet import poset
        cover = poset.min_antichain_cover
        monkeypatch.setattr(poset, "min_antichain_cover",
                            lambda p: cover(p) + 1)
        self._assert_internal(capsys, "poset", "--n", "3")

    def test_rank_sizes_must_match_the_poset(self, capsys, monkeypatch):
        from dyckposet import poset
        rank_sizes = poset.rank_sizes
        # D_3 has rank sizes 1;1;2;1 from the top: read upside down, they
        # keep the right total
        monkeypatch.setattr(poset, "rank_sizes",
                            lambda n: rank_sizes(n)[::-1])
        self._assert_internal(capsys, "poset", "--n", "3")

    def test_ideal_count_must_match_the_antichains(self, capsys,
                                                   monkeypatch):
        from dyckposet import poset
        order_ideals = poset.order_ideals
        monkeypatch.setattr(poset, "order_ideals",
                            lambda p: order_ideals(p)[1:])
        self._assert_internal(capsys, "poset", "--n", "3")

    def test_maximal_chains_must_match_the_hook_formula(self, capsys,
                                                        monkeypatch):
        from dyckposet import tableaux
        hook = tableaux.staircase_maxchain
        monkeypatch.setattr(tableaux, "staircase_maxchain",
                            lambda n: hook(n) + 1)
        self._assert_internal(capsys, "chains", "--n", "3")


def _forbid_path_enumeration(monkeypatch):
    """Make every binding of enumerate_paths raise."""
    def refuse(n):
        raise AssertionError(f"paths of order {n} enumerated")
    original = paths.enumerate_paths
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "dyckposet":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
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
        _, out, _ = run_cli(capsys, "parking", "--n", "7")
        assert json.loads(out) == {"order": "7", "count_closed": "262144"}

    def test_qt_enumerates_paths_three_times(self, capsys, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return paths.enumerate_paths(n)
        monkeypatch.setattr(qt, "enumerate_paths", counted)
        assert run_cli(capsys, "qt", "--n", "5")[0] == EXIT_OK
        assert calls == [5, 5, 5]

    def test_antichains_at_limit_fit_in_memory(self, capsys):
        # every order the table allows must run without exhausting memory;
        # listing the 37,620,704 antichains of D_6 took 2 GB
        golden = json.loads(GOLDEN.read_text())["ops"]["antichains --n 6"]
        assert MAX_ORDER["antichains"] == 6
        tracemalloc.start()
        try:
            code = main(["antichains", "--n", "6"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == golden["exit"] == EXIT_OK
        assert capsys.readouterr().out == golden["stdout"]
        assert peak < 256 * 2**20

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

    def test_csv_and_json_agree(self, capsys):
        _, json_out, _ = run_cli(capsys, "catalan", "--n", "5")
        _, csv_out, _ = run_cli(capsys, "--format", "csv",
                                "catalan", "--n", "5")
        payload = json.loads(json_out)
        rows = dict(line.split(",", 1)
                    for line in csv_out.strip().splitlines()[1:])
        assert rows["catalan_closed"] == payload["catalan_closed"] == "42"


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

    def test_polynomial_terms_are_lists(self, capsys):
        _, out, _ = run_cli(capsys, "qt", "--n", "3")
        payload = json.loads(out)
        assert payload["qt_catalan"] == [
            [0, 3, "1"], [1, 1, "1"], [1, 2, "1"], [2, 1, "1"], [3, 0, "1"]]
