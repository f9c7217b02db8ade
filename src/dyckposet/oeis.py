"""Verification of computed sequences against bundled OEIS snapshots.

Snapshots follow the b-file convention (one "index value" pair per line,
'#' comments) and are vendored under data/; nothing is fetched at runtime.
The registry records, per sequence, the snapshot index of its first term,
since offset conventions differ between the tables and the OEIS; the terms
of each order, one or a triangle row, follow in order.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import Callable, NamedTuple

from . import chromatic, incidence, parking, paths, poset


class UnknownSequenceError(Exception):
    pass


class SnapshotParseError(Exception):
    pass


class OrderOutOfRangeError(ValueError):
    """An order that is negative or past the snapshot's extent."""


def parse_snapshot(text: str) -> list[tuple[int, int]]:
    terms: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise SnapshotParseError(f"line {lineno}: expected 'index value'")
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise SnapshotParseError(f"line {lineno}: {exc}") from exc
        if terms and index <= terms[-1][0]:
            raise SnapshotParseError(
                f"line {lineno}: indices must strictly increase")
        terms.append((index, value))
    return terms


# read beside this file, which keeps importlib.resources, and the pathlib,
# tempfile and inspect it imports, off the start-up path
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def load_snapshot(sequence_id: str) -> list[tuple[int, int]]:
    try:
        with open(os.path.join(_DATA_DIR, f"{sequence_id}.txt"),
                  encoding="utf-8") as snapshot:
            text = snapshot.read()
    except FileNotFoundError as exc:
        raise UnknownSequenceError(sequence_id) from exc
    return parse_snapshot(text)


def _chromatic_row(n: int) -> list[int]:
    poly = chromatic.hasse_chromatic(poset.build_poset(n))
    return [abs(poly.coeffs.get(e, 0))
            for e in range(poly.degree, 0, -1)]


# per sequence, order n -> its term, or its row of a flattened triangle.
# The functions live here, not in the records: bench/tracer.py rebinds the
# function values of module-level dicts, and a named tuple's fields cannot
# be rebound, so SequenceEntry.compute reads this table
_COMPUTE: dict[str, Callable[[int], int] | Callable[[int], list[int]]] = {
    "A000108": paths.catalan_closed,
    "A005700": lambda n: incidence.interval_count(poset.build_poset(n)),
    "A143672": lambda n: incidence.total_chains(poset.build_poset(n)),
    "A005118": lambda n: incidence.maximal_chain_count(poset.build_poset(n)),
    "A143673": lambda n: poset.antichain_census(poset.build_poset(n)).total,
    "A143674": lambda n: poset.antichain_census(poset.build_poset(n),
                                                "maximal").total,
    "A000272": parking.count_parking_functions,
    "A129176": lambda n: list(poset.rank_sizes(n)),
    "A141622": _chromatic_row,
}


class SequenceEntry(NamedTuple):
    sequence_id: str
    description: str
    first_index: int  # snapshot index of the first term of order 0
    max_order: int

    @property
    def compute(self) -> Callable[[int], int] | Callable[[int], list[int]]:
        return _COMPUTE[self.sequence_id]


REGISTRY: dict[str, SequenceEntry] = {entry.sequence_id: entry for entry in (
    SequenceEntry("A000108", "Catalan numbers", 0, 15),
    SequenceEntry("A005700", "interval counts of D_n", 0, 5),
    SequenceEntry("A143672", "total chain counts of D_n", 0, 5),
    SequenceEntry("A005118", "maximal chain counts of D_n", 0, 6),
    SequenceEntry("A143673", "antichain counts of D_n", 0, 5),
    SequenceEntry("A143674", "maximal antichain counts of D_n", 0, 5),
    SequenceEntry("A000272", "parking function counts, shifted by one", 1, 7),
    SequenceEntry("A129176", "rank sizes of D_n by decreasing rank", 0, 7),
    SequenceEntry(
        "A141622",
        "chromatic coefficients of Hasse(D_n), |values| by descending degree",
        0, 4),
)}


class VerificationLine(NamedTuple):
    index: int
    expected: int
    computed: int

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


class VerificationReport(NamedTuple):
    sequence_id: str
    lines: tuple[VerificationLine, ...]

    @property
    def passed(self) -> bool:
        """True iff at least one line was checked and every line matched."""
        return bool(self.lines) and all(line.ok for line in self.lines)


def verify_sequence(sequence_id: str, max_n: int) -> VerificationReport:
    if sequence_id not in REGISTRY:
        raise UnknownSequenceError(sequence_id)
    entry = REGISTRY[sequence_id]
    if max_n < 0:
        raise OrderOutOfRangeError(f"order must be non-negative: {max_n}")
    if max_n > entry.max_order:
        raise OrderOutOfRangeError(
            f"{sequence_id} is only computable up to n = {entry.max_order}")
    snapshot = dict(load_snapshot(sequence_id))
    terms = chain.from_iterable(
        [row] if isinstance(row, int) else row
        for row in map(entry.compute, range(max_n + 1)))
    lines: list[VerificationLine] = []
    for index, computed in enumerate(terms, entry.first_index):
        if index not in snapshot:
            raise SnapshotParseError(
                f"{sequence_id} snapshot lacks index {index}")
        lines.append(VerificationLine(
            index=index, expected=snapshot[index], computed=computed))
    return VerificationReport(sequence_id=sequence_id, lines=tuple(lines))
