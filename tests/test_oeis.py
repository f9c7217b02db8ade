import pytest

from dyckposet import (REGISTRY, SnapshotParseError, UnknownSequenceError,
                       VerificationReport, incidence, load_snapshot, oeis,
                       parse_snapshot, paths, tableaux, verify_sequence)
from dyckposet.cli import EXIT_INTERNAL, EXIT_MISMATCH, main

SEQUENCE_IDS = sorted(REGISTRY)


class TestParser:
    def test_parses_values_and_comments(self):
        terms = parse_snapshot("# header\n0 1\n1 1\n\n2 2\n")
        assert terms == [(0, 1), (1, 1), (2, 2)]

    def test_rejects_malformed_line(self):
        with pytest.raises(SnapshotParseError):
            parse_snapshot("0 1 extra\n")
        with pytest.raises(SnapshotParseError):
            parse_snapshot("zero 1\n")

    def test_rejects_non_increasing_indices(self):
        with pytest.raises(SnapshotParseError):
            parse_snapshot("0 1\n0 2\n")
        with pytest.raises(SnapshotParseError):
            parse_snapshot("3 1\n2 2\n")

    def test_unknown_sequence(self):
        with pytest.raises(UnknownSequenceError):
            load_snapshot("A999999")
        with pytest.raises(UnknownSequenceError):
            verify_sequence("A999999", 3)


class TestSnapshots:
    @pytest.mark.parametrize("sequence_id", SEQUENCE_IDS)
    def test_snapshot_loads(self, sequence_id):
        terms = load_snapshot(sequence_id)
        assert terms, sequence_id
        assert terms[0][0] in (0, 1)

    @pytest.mark.parametrize("sequence_id", SEQUENCE_IDS)
    def test_verification_passes_at_small_range(self, sequence_id):
        entry = REGISTRY[sequence_id]
        report = verify_sequence(sequence_id, min(entry.max_order, 4))
        assert report.passed, [
            (l.index, l.expected, l.computed)
            for l in report.lines if not l.ok]

    def test_maximal_chains_by_inversion_at_every_order(self, monkeypatch):
        orders = []
        count = incidence.maximal_chain_count
        monkeypatch.setattr(incidence, "maximal_chain_count",
                            lambda p: orders.append(p.n) or count(p))
        assert verify_sequence("A005118", 6).passed
        assert orders == list(range(7))

    def test_maximal_chains_checked_against_hook_formula(self, monkeypatch,
                                                         capsys):
        hook = tableaux.staircase_maxchain
        monkeypatch.setattr(tableaux, "staircase_maxchain",
                            lambda n: hook(n) + (n == 6))
        with pytest.raises(AssertionError):
            verify_sequence("A005118", 6)
        assert main(["verify", "--sequence", "A005118"]) == EXIT_INTERNAL
        assert capsys.readouterr().out == ""

    def test_range_cap_enforced(self):
        with pytest.raises(ValueError):
            verify_sequence("A005700", 9)


class TestReport:
    def test_mismatch_is_reported_not_hidden(self, monkeypatch):
        compute = REGISTRY["A000108"].compute
        monkeypatch.setitem(oeis._COMPUTE, "A000108",
                            lambda n: compute(n) + (1 if n == 2 else 0))
        report = verify_sequence("A000108", 3)
        assert not report.passed
        bad = [l for l in report.lines if not l.ok]
        assert [(l.index, l.expected, l.computed) for l in bad] == [(2, 2, 3)]

    def test_records_compute_through_the_table(self, monkeypatch, capsys):
        # a record holds no function: a patched table entry is both what
        # the record returns and what verify runs, so that a tracer which
        # rebinds the table's values sees every compute call
        calls = []

        def broken(n):
            calls.append(n)
            return paths.catalan_closed(n) + (n == 3)

        monkeypatch.setitem(oeis._COMPUTE, "A000108", broken)
        assert REGISTRY["A000108"].compute is broken
        assert main(["verify", "--sequence", "A000108", "--n", "3"]) \
            == EXIT_MISMATCH
        assert "MISMATCH" in capsys.readouterr().out
        assert calls == [0, 1, 2, 3]

    def test_nothing_checked_does_not_pass(self):
        assert not VerificationReport("A000108", ()).passed
        with pytest.raises(ValueError):
            verify_sequence("A000108", -3)
