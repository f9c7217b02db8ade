import json

import pytest

from dyckposet.cli import (COMMANDS, EXIT_LIMIT, EXIT_MISMATCH, EXIT_OK,
                           EXIT_USAGE, GUARANTEED_KEYS, main)


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

    def test_limit_override_flag(self, capsys):
        code, _, _ = run_cli(capsys, "poset", "--n", "3", "--max-n", "3")
        assert code == EXIT_OK

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DYCKPOSET_MAX_N", "2")
        code, _, _ = run_cli(capsys, "poset", "--n", "3")
        assert code == EXIT_LIMIT

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
