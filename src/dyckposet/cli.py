"""Command-line interface.

Every subcommand prints a flat mapping of quantity names to values; integers
are rendered as decimal strings (they routinely exceed 2^53, so JSON numbers
would be lossy downstream), polynomials as ordered term lists.  Output is
byte-deterministic for a given invocation.  Each subcommand first checks its
order against config.MAX_ORDER for every job it runs, and the output is
rendered in full before it is written, so a failed call prints nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from math import comb
from typing import Callable

from . import incidence, oeis, parking, paths, poset, qt, tableaux
from .chromatic import hasse_chromatic
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
    closed = paths.catalan_closed(n)
    recurrence = paths.catalan_recurrence(n)
    if closed != recurrence:
        raise AssertionError("Catalan numbers: closed form and recurrence "
                             "disagree")
    out = [
        ("order", n),
        ("catalan_closed", closed),
        ("catalan_recurrence", recurrence),
    ]
    if n >= 1:
        out.append(("bad_path_count", paths.count_bad_paths(n)))
    return out


def cmd_poset(args: argparse.Namespace) -> Result:
    check_order(args.n, "paths", "antichains", "order_ideals")
    p = poset.build_poset(args.n)
    census = poset.antichain_census(p, "all")
    sizes = poset.rank_sizes(p.n)
    by_rank = Counter(p.rank)
    if sizes != tuple(by_rank[r] for r in range(max(p.rank), -1, -1)):
        raise AssertionError("rank sizes: recurrence disagrees with the "
                             "poset's rank histogram")
    # downward closure maps the antichains one to one onto the order ideals
    ideal_count = len(poset.order_ideals(p))
    if ideal_count != census.total:
        raise AssertionError(f"order ideal counts disagree: {ideal_count} "
                             f"ideals vs {census.total} antichains")
    # a cover adds one cell at a valley; the paths of order n have
    # C(2n-1, n-2) valleys in all
    cover_edges = len(p.cover_edges())
    if cover_edges != (comb(2 * p.n - 1, p.n - 2) if p.n >= 2 else 0):
        raise AssertionError("cover edges: the Hasse diagram disagrees with "
                             "the valley count C(2n-1, n-2)")
    # the C(n, 2) + 1 rank levels are a minimum antichain cover
    antichain_cover = poset.min_antichain_cover(p)
    if antichain_cover != comb(p.n, 2) + 1:
        raise AssertionError("minimum antichain cover: the longest chain "
                             "disagrees with the C(n, 2) + 1 rank levels")
    return [
        ("order", p.n),
        ("size", p.size),
        ("interval_count", incidence.interval_count(p)),
        ("cover_edge_count", cover_edges),
        ("rank_sizes", ";".join(map(str, sizes))),
        ("order_ideal_count", ideal_count),
        ("width", max(census.by_size)),
        ("min_chain_cover", poset.min_chain_cover(p)),
        ("min_antichain_cover", antichain_cover),
    ]


def cmd_chains(args: argparse.Namespace) -> Result:
    check_order(args.n, "paths", "chains")
    p = poset.build_poset(args.n)
    census = incidence.chain_census(p)
    hook = tableaux.staircase_maxchain(p.n)
    if census.maximal != hook:
        raise AssertionError("maximal chains: incidence algebra disagrees "
                             "with the hook-length formula")
    return [
        ("order", p.n),
        ("total_chains", census.total),
        ("maximal_chains", census.maximal),
        ("maximal_chains_hook", hook),
        ("chain_polynomial", census.polynomial),
    ]


def cmd_antichains(args: argparse.Namespace) -> Result:
    job = "maximal_antichains" if args.mode == "maximal" else "antichains"
    check_order(args.n, "paths", job)
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
    n = args.n
    check_order(n, "paths")
    poly = qt.qt_catalan(n)
    count = poly(1, 1)
    if count != paths.catalan_closed(n):
        raise AssertionError("q,t-Catalan polynomial at (1, 1) disagrees "
                             "with the Catalan number")
    q0, t0 = qt.GH_CHECK_POINT
    if poly.evaluate_exact(q0, t0) != qt.gh_evaluate(n, q0, t0):
        raise AssertionError(f"q,t-Catalan polynomial at ({q0}, {t0}) "
                             "disagrees with the partition sum")
    return [
        ("order", n),
        ("qt_catalan", poly),
        ("area_analog", qt.cn_area(n)),
        ("inv_analog", qt.cn_inv(n)),
        ("maj_analog", qt.cn_maj(n)),
        ("symmetric", int(poly.swap_variables() == poly)),
        ("count_specialization", count),
    ]


def cmd_chromatic(args: argparse.Namespace) -> Result:
    check_order(args.n, "paths", "chromatic")
    p = poset.build_poset(args.n)
    poly = hasse_chromatic(p)
    return [
        ("order", p.n),
        ("vertex_count", p.size),
        ("edge_count", len(p.cover_edges())),
        ("chromatic_polynomial", poly),
        ("two_colourings", poly(2)),
    ]


def cmd_parking(args: argparse.Namespace) -> Result:
    n = args.n
    check_order(n, "counts")
    closed = parking.count_parking_functions(n)
    out: Result = [("order", n), ("count_closed", closed)]
    if n <= MAX_ORDER["parking"]:
        filtered = parking.count_parking_by_filter(n)
        labelled = parking.enumerate_labelled_paths(n)
        if not filtered == len(labelled) == closed:
            raise AssertionError("parking counts: closed form, filter "
                                 "and labelled paths disagree")
        out.append(("count_enumerated", filtered))
        out.append(("labelled_path_count", len(labelled)))
        out.append(("content_group_count",
                    len(parking.content_group_representatives(n))))
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
    if isinstance(value, (UniPoly, BiPoly)):
        return [[*exponents, str(c)] for *exponents, c in value.terms()]
    if isinstance(value, int):
        return str(value)
    return value


def _render_csv_value(value) -> str:
    rendered = _render_value(value)
    if isinstance(rendered, list):
        return ";".join(":".join(map(str, term)) for term in rendered)
    return str(rendered)


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
