"""Command-line interface.

Every subcommand prints a flat mapping of quantity names to values; integers
are rendered as decimal strings (they routinely exceed 2^53, so JSON numbers
would be lossy downstream), polynomials as ordered term lists.  Output is
byte-deterministic for a given invocation.  Each subcommand first checks its
order against config.MAX_ORDER for every job it runs, and the output is
rendered in full before it is written, so a failed call prints nothing.
Each subcommand formats what its layers return, and the layers run their
own two-route checks; cli reads no private name of another module.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

from . import incidence, oeis, parking, paths, poset, qt
from .chromatic import hasse_chromatic, hasse_vertex_count
from .config import MAX_ORDER, LimitExceededError, check_order
from .polynomials import BiPoly, UniPoly

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4

Value = "int | UniPoly | BiPoly | str"
Result = "list[tuple[str, Value]]"


def cmd_catalan(args: argparse.Namespace) -> Result:
    n = args.n
    check_order(n, "counts")
    # the closed form, checked against the recurrence
    count = paths.catalan_count(n)
    out = [
        ("order", n),
        ("catalan_closed", count),
        ("catalan_recurrence", count),
    ]
    if n >= 1:
        out.append(("bad_path_count", paths.count_bad_paths(n)))
    return out


def cmd_poset(args: argparse.Namespace) -> Result:
    check_order(args.n, "paths", "antichains")
    p = poset.build_poset(args.n)
    # the census has checked each field against a second route, the width
    # against the Dilworth matching
    census = poset.poset_census(p)
    return [
        ("order", p.n),
        ("size", p.size),
        ("interval_count", incidence.interval_count(p)),
        ("cover_edge_count", census.cover_edges),
        ("rank_sizes", ";".join(map(str, census.rank_sizes))),
        ("order_ideal_count", census.order_ideals),
        ("width", census.width),
        ("min_chain_cover", census.width),
        ("min_antichain_cover", census.antichain_cover),
    ]


def cmd_chains(args: argparse.Namespace) -> Result:
    check_order(args.n, "paths")
    p = poset.build_poset(args.n)
    # the census has checked its maximal count against the hook formula
    census = incidence.chain_census(p)
    return [
        ("order", p.n),
        ("total_chains", census.total),
        ("maximal_chains", census.maximal),
        ("maximal_chains_hook", census.maximal),
        ("chain_polynomial", census.polynomial),
    ]


def cmd_antichains(args: argparse.Namespace) -> Result:
    check_order(args.n, "paths", "maximal_antichains"
                if args.mode == "maximal" else "antichains")
    p = poset.build_poset(args.n)
    census = poset.antichain_census(p, args.mode)
    out: Result = [("order", p.n), ("mode", args.mode),
                   ("total", census.total)]
    if census.width is not None:
        out.append(("width", census.width))
    for size in sorted(census.by_size):
        out.append((f"size_{size}", census.by_size[size]))
    return out


def cmd_qt(args: argparse.Namespace) -> Result:
    check_order(args.n, "paths")
    # the census has checked each polynomial against a second route
    census = qt.qt_census(args.n)
    return [
        ("order", args.n),
        ("qt_catalan", census.poly),
        ("area_analog", census.area),
        ("inv_analog", census.inv),
        ("maj_analog", census.maj),
        ("symmetric", int(census.poly.swap_variables() == census.poly)),
        ("count_specialization", census.count),
    ]


def cmd_chromatic(args: argparse.Namespace) -> Result:
    check_order(args.n, "paths", "chromatic")
    p = poset.build_poset(args.n)
    # the vertex count is checked against C_n, the edge count against the
    # valleys, and the polynomial's value at 2 against the two rank-parity
    # colourings
    vertices = hasse_vertex_count(p)
    edges = poset.cover_edge_count(p)
    poly = hasse_chromatic(p)
    return [
        ("order", p.n),
        ("vertex_count", vertices),
        ("edge_count", edges),
        ("chromatic_polynomial", poly),
        ("two_colourings", poly(2)),
    ]


def cmd_parking(args: argparse.Namespace) -> Result:
    n = args.n
    check_order(n, "counts")
    out: Result = [("order", n),
                   ("count_closed", parking.count_parking_functions(n))]
    if n <= MAX_ORDER["paths"]:
        # the census has checked the closed form, the filter and the
        # labelled paths against each other, and the groups against C_n
        census = parking.parking_census(n)
        out.append(("count_enumerated", census.count))
        out.append(("labelled_path_count", census.count))
        out.append(("content_group_count", census.groups))
    return out


def cmd_verify(args: argparse.Namespace) -> Result:
    # bounded by the snapshot's extent: verify_sequence refuses a larger
    # order (exit 2) before computing anything
    entry = oeis.REGISTRY[args.sequence]
    max_n = args.n if args.n is not None else entry.max_order
    report = oeis.verify_sequence(args.sequence, max_n)
    out: Result = [("sequence", args.sequence),
                   ("description", entry.description),
                   ("checked", len(report.lines)),
                   ("passed", "yes" if report.passed else "no")]
    for line in report.lines:
        status = "ok" if line.ok else f"MISMATCH expected {line.expected}"
        out.append((f"index_{line.index}", f"{line.computed} {status}"))
    return out


COMMANDS: dict[str, Callable[[argparse.Namespace], Result]] = {
    "catalan": cmd_catalan,
    "poset": cmd_poset,
    "chains": cmd_chains,
    "antichains": cmd_antichains,
    "qt": cmd_qt,
    "chromatic": cmd_chromatic,
    "parking": cmd_parking,
    "verify": cmd_verify,
}


def _render_value(value):
    if isinstance(value, (UniPoly, BiPoly)):
        return [term[:-1] + (str(term[-1]),) for term in value.terms()]
    if isinstance(value, int):
        return str(value)
    return value


def _render_csv_value(value) -> str:
    """The CSV field of value; one that holds a comma, a quote or a line
    break is quoted, its quotes doubled (RFC 4180)."""
    rendered = _render_value(value)
    if isinstance(rendered, list):
        rendered = ";".join(":".join(map(str, term)) for term in rendered)
    text = str(rendered)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render(result, fmt: str) -> str:
    if fmt == "json":
        payload = {key: _render_value(value) for key, value in result}
        return json.dumps(payload, separators=(",", ":")) + "\n"
    return "".join(["quantity,value\n"] + [
        f"{key},{_render_csv_value(value)}\n" for key, value in result])


def _order(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"order must be a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="dyckposet",
        description="Exact enumeration in the lattice of Dyck paths.")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, needs_n: bool = True):
        p = sub.add_parser(name, help=help_text)
        if needs_n:
            p.add_argument("--n", type=_order, required=True,
                           help="path order (half-length)")
        return p

    add("catalan", "Catalan counts by independent routes")
    add("poset", "size, ranks, ideals, width, and cover numbers")
    add("chains", "chain censuses via the incidence algebra")
    anti = add("antichains", "antichain censuses")
    anti.add_argument("--mode", choices=("all", "maximal", "maximum"),
                      default="all")
    add("qt", "q- and q,t-analogs of the Catalan numbers")
    add("chromatic", "chromatic polynomial of the Hasse diagram")
    add("parking", "parking-function counts and bijection censuses")
    ver = add("verify", "check computed values against bundled snapshots",
              needs_n=False)
    ver.add_argument("--sequence", required=True,
                     choices=sorted(oeis.REGISTRY))
    ver.add_argument("--n", type=_order, default=None,
                     help="largest order to verify (defaults per sequence)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = COMMANDS[args.command](args)
        text = render(result, args.format)
    except LimitExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (oeis.UnknownSequenceError, oeis.SnapshotParseError,
            oeis.OrderOutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault in the program, not in the input
        import traceback  # here, to keep it off the start-up path
        traceback.print_exc()
        print(f"error: internal fault: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(text)
    if args.command == "verify":
        passed = dict(result)["passed"] == "yes"
        return EXIT_OK if passed else EXIT_MISMATCH
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
