"""Command-line interface.

Every subcommand prints a flat mapping of quantity names to values; integers
are rendered as decimal strings (they routinely exceed 2^53, so JSON numbers
would be lossy downstream), polynomials as ordered term lists.  Output is
byte-deterministic for a given invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from . import incidence, oeis, parking, paths, poset, qt, tableaux
from .chromatic import hasse_chromatic
from .config import ENV_MAX_ORDER, Limits, LimitExceededError
from .polynomials import BiPoly, UniPoly

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

Value = "int | UniPoly | BiPoly | str"
Result = "list[tuple[str, Value]]"


def _limits(args: argparse.Namespace) -> Limits:
    if args.max_n is not None:
        return Limits(max_order=args.max_n)
    return Limits.from_env()


def cmd_catalan(args: argparse.Namespace) -> Result:
    n = args.n
    out = [
        ("order", n),
        ("catalan_closed", paths.catalan_closed(n)),
        ("catalan_recurrence", paths.catalan_recurrence(n)),
    ]
    if n >= 1:
        out.append(("bad_path_count", paths.count_bad_paths(n)))
    return out


def cmd_poset(args: argparse.Namespace) -> Result:
    limits = _limits(args)
    p = poset.build_poset(args.n, limits)
    census = poset.antichain_census(p, "maximum")
    return [
        ("order", p.n),
        ("size", p.size),
        ("interval_count", incidence.interval_count(p)),
        ("cover_edge_count", len(p.cover_edges())),
        ("rank_sizes", ";".join(map(str, poset.rank_sizes(p.n)))),
        ("order_ideal_count", len(poset.order_ideals(p, limits))),
        ("width", census.width),
        ("min_chain_cover", poset.min_chain_cover(p)),
        ("min_antichain_cover", poset.min_antichain_cover(p)),
    ]


def cmd_chains(args: argparse.Namespace) -> Result:
    p = poset.build_poset(args.n, _limits(args))
    return [
        ("order", p.n),
        ("total_chains", incidence.total_chains(p)),
        ("maximal_chains", incidence.maximal_chain_count(p)),
        ("maximal_chains_hook", tableaux.staircase_maxchain(p.n)
         if p.n >= 1 else 1),
        ("chain_polynomial", incidence.chain_polynomial(p)),
    ]


def cmd_antichains(args: argparse.Namespace) -> Result:
    p = poset.build_poset(args.n, _limits(args))
    census = poset.antichain_census(p, args.mode)
    out: Result = [("order", p.n), ("mode", args.mode),
                   ("total", census.total)]
    if census.width is not None:
        out.append(("width", census.width))
    for size in sorted(census.by_size):
        out.append((f"size_{size}", census.by_size[size]))
    return out


def cmd_qt(args: argparse.Namespace) -> Result:
    limits = _limits(args)
    n = args.n
    poly = qt.qt_catalan(n, limits)
    return [
        ("order", n),
        ("qt_catalan", poly),
        ("area_analog", qt.cn_area(n, limits)),
        ("inv_analog", qt.cn_inv(n, limits)),
        ("maj_analog", qt.cn_maj(n, limits)),
        ("symmetric", int(poly.swap_variables() == poly)),
        ("count_specialization", poly(1, 1)),
    ]


def cmd_chromatic(args: argparse.Namespace) -> Result:
    p = poset.build_poset(args.n, _limits(args))
    poly = hasse_chromatic(p, allow_large=args.allow_large)
    return [
        ("order", p.n),
        ("vertex_count", p.size),
        ("edge_count", len(p.cover_edges())),
        ("chromatic_polynomial", poly),
        ("two_colourings", poly(2)),
    ]


def cmd_parking(args: argparse.Namespace) -> Result:
    n = args.n
    out: Result = [
        ("order", n),
        ("count_closed", parking.count_parking_functions(n)),
    ]
    if n <= parking.ENUMERATION_GATE:
        functions = parking.enumerate_parking_functions(n)
        labelled = parking.enumerate_labelled_paths(n)
        out.append(("count_enumerated", len(functions)))
        out.append(("labelled_path_count", len(labelled)))
        out.append(("content_group_count",
                    len(parking.content_group_representatives(n))))
    return out


def cmd_verify(args: argparse.Namespace) -> Result:
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

# quantity keys each command always emits, for interface-coverage checks
GUARANTEED_KEYS: dict[str, tuple[str, ...]] = {
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


def _render_value(value):
    if isinstance(value, UniPoly):
        return [[e, str(c)] for e, c in value.terms()]
    if isinstance(value, BiPoly):
        return [[qe, te, str(c)] for qe, te, c in value.terms()]
    if isinstance(value, int):
        return str(value)
    return value


def _render_csv_value(value) -> str:
    rendered = _render_value(value)
    if isinstance(rendered, list):
        return ";".join(":".join(map(str, term)) for term in rendered)
    return str(rendered)


def emit(result, fmt: str, stream) -> None:
    if fmt == "json":
        payload = {key: _render_value(value) for key, value in result}
        stream.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        stream.write("quantity,value\n")
        for key, value in result:
            stream.write(f"{key},{_render_csv_value(value)}\n")


def _order(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"order must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyckposet",
        description="Exact enumeration in the lattice of Dyck paths.",
        epilog=f"The {ENV_MAX_ORDER} environment variable caps the order "
               "when --max-n is not given.")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, needs_n: bool = True):
        p = sub.add_parser(name, help=help_text)
        if needs_n:
            p.add_argument("--n", type=_order, required=True,
                           help="path order (half-length)")
        p.add_argument("--max-n", type=int, default=None,
                       help="override the enumeration cap")
        return p

    add("catalan", "Catalan counts by independent routes")
    add("poset", "size, ranks, ideals, width, and cover numbers")
    add("chains", "chain censuses via the incidence algebra")
    anti = add("antichains", "antichain censuses")
    anti.add_argument("--mode", choices=("all", "maximal", "maximum"),
                      default="all")
    add("qt", "q- and q,t-analogs of the Catalan numbers")
    chrom = add("chromatic", "chromatic polynomial of the Hasse diagram")
    chrom.add_argument("--allow-large", action="store_true",
                       help="permit orders above the chromatic gate")
    add("parking", "parking-function counts and bijection censuses")
    ver = add("verify", "check computed values against bundled snapshots",
              needs_n=False)
    ver.add_argument("--sequence", required=True,
                     choices=sorted(oeis.REGISTRY))
    ver.add_argument("--n", type=_order, default=None,
                     help="largest order to verify (defaults per sequence)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = COMMANDS[args.command](args)
    except LimitExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (oeis.UnknownSequenceError, oeis.SnapshotParseError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    emit(result, args.format, sys.stdout)
    if args.command == "verify":
        passed = dict(result)["passed"] == "yes"
        return EXIT_OK if passed else EXIT_MISMATCH
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
