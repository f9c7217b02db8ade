"""Per-layer spans and work counters for the traced benchmark run.

The tracer wraps, from outside the package, every public function of each
dyckposet layer module.  Several modules bind layer functions by name
(``from .paths import enumerate_paths``), and ``cli.COMMANDS`` and
``oeis.REGISTRY`` hold function objects in containers, so a wrapper is
installed in every module namespace, dict value and dataclass field that
holds the original object.  ``ExactMatrix.__matmul__`` is patched on the
class.  Spans, with parent ids, stay in memory until the pass ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Counter hooks run after a span has closed, so their small
cost lands in the parent's self time, never in the layer they count.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter

# modules whose public functions are spanned; polynomials is counted only
LAYER_MODULES = ("cli", "paths", "poset", "incidence", "qt", "tableaux",
                 "chromatic", "parking", "oeis")

# the poset module is split by job; its other public functions fall under
# poset.other
POSET_JOBS = {
    "build_poset": "poset.build",
    "antichain_census": "poset.antichains",
    "antichain_ideal_bijection_check": "poset.antichains",
    "order_ideals": "poset.ideals",
    "point_poset": "poset.ideals",
    "path_ideal": "poset.ideals",
    "ideal_path": "poset.ideals",
    "jp_isomorphism_check": "poset.ideals",
    "min_chain_cover": "poset.dilworth",
    "min_antichain_cover": "poset.dilworth",
}

# every layer that can own spans, in report order; harness is the root span
# of a pass and owns the glue between ops
LAYERS = ("cli", "paths", "poset.build", "poset.antichains", "poset.ideals",
          "poset.dilworth", "poset.other", "incidence", "qt", "tableaux",
          "chromatic", "parking", "oeis")

COUNTERS = ("cli.bytes_out", "paths.paths", "poset.build.elements",
            "poset.build.cover_edges", "poset.antichains.masks",
            "poset.ideals.count", "incidence.matmul_calls",
            "incidence.matmul_madds", "incidence.invert_calls",
            "incidence.max_dim", "polynomials.mul_calls", "qt.gh_points",
            "qt.gh_partitions", "chromatic.vertices", "chromatic.edges",
            "parking.functions", "parking.labelled_paths",
            "oeis.lines_checked")


def layer_of(module: str, name: str) -> str:
    """The layer that owns spans of public function `name` of `module`."""
    if module == "poset":
        return POSET_JOBS.get(name, "poset.other")
    return module


def _count_build(c, result, args, kwargs):
    c["poset.build.elements"] += result.size
    c["poset.build.cover_edges"] += sum(m.bit_count() for m in result.cover_up)


def _count_census(c, result, args, kwargs):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "all")
    if mode == "all":
        c["poset.antichains.masks"] += result.total


def _count_matmul(c, result, args, kwargs):
    dim = args[0].dim
    c["incidence.matmul_calls"] += 1
    c["incidence.matmul_madds"] += dim ** 3
    c["incidence.max_dim"] = max(c["incidence.max_dim"], dim)


def _count_invert(c, result, args, kwargs):
    c["incidence.invert_calls"] += 1
    c["incidence.max_dim"] = max(c["incidence.max_dim"], args[0].dim)


def _count_chromatic(c, result, args, kwargs):
    graph = args[0]
    c["chromatic.vertices"] += graph.vertex_count
    c["chromatic.edges"] += len(graph.edges)


def _adder(key, measure=len):
    def count(c, result, args, kwargs):
        c[key] += measure(result)
    return count


COUNT_HOOKS = {
    ("paths", "enumerate_paths"): _adder("paths.paths"),
    ("poset", "build_poset"): _count_build,
    ("poset", "antichain_census"): _count_census,
    ("poset", "order_ideals"): _adder("poset.ideals.count"),
    ("incidence", "invert_unitriangular"): _count_invert,
    ("qt", "gh_evaluate"): _adder("qt.gh_points", lambda _point: 1),
    ("chromatic", "chromatic_polynomial"): _count_chromatic,
    ("parking", "enumerate_parking_functions"): _adder("parking.functions"),
    ("parking", "enumerate_labelled_paths"): _adder("parking.labelled_paths"),
    ("oeis", "verify_sequence"): _adder("oeis.lines_checked",
                                         lambda report: len(report.lines)),
}


class Tracer:
    """Records spans as [layer, name, parent index, start ns, end ns]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []
        self._counting_keys: set[str] = set()

    def wrap(self, layer: str, name: str, fn, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [layer, name, stack[-1] if stack else None, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if count is not None:
                count(counters, result, args, kwargs)
            return result

        return functools.update_wrapper(traced, fn)

    def counting(self, key: str, fn):
        """Wrap fn to bump a counter only; for calls too frequent to span."""
        counters = self.counters
        self._counting_keys.add(key)

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def root(self, layer: str, name: str):
        """Open a span that has no wrapped function, such as a whole pass."""
        record = [layer, name, self._stack[-1] if self._stack else None,
                  time.perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record) -> None:
        record[4] = time.perf_counter_ns()
        self._stack.pop()

    # -- installing and removing the wrappers

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dyckposet" or name.startswith("dyckposet.")]
        replacements: dict[int, object] = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"dyckposet.{short}"]
            for name, obj in vars(module).items():
                if (name.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                replacements[id(obj)] = self.wrap(
                    layer_of(short, name), f"{short}.{name}", obj,
                    COUNT_HOOKS.get((short, name)))
        for module in modules:
            self._rebind(module, replacements)

        incidence = sys.modules["dyckposet.incidence"]
        polynomials = sys.modules["dyckposet.polynomials"]
        qt = sys.modules["dyckposet.qt"]
        matrix = incidence.ExactMatrix
        self._set_attr(matrix, "__matmul__", self.wrap(
            "incidence", "incidence.ExactMatrix.__matmul__",
            matrix.__matmul__, _count_matmul))
        for cls in (polynomials.UniPoly, polynomials.BiPoly):
            self._set_attr(cls, "__mul__", self.counting(
                "polynomials.mul_calls", cls.__mul__))
        self._set_attr(qt, "_gh_term", self.counting(
            "qt.gh_partitions", qt._gh_term))

    def _rebind(self, module, replacements: dict[int, object]) -> None:
        for name, obj in list(vars(module).items()):
            if id(obj) in replacements:
                self._set_attr(module, name, replacements[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    new = self._replaced(value, replacements)
                    if new is not value:
                        self._undo.append((obj.__setitem__, key, value))
                        obj[key] = new

    @staticmethod
    def _replaced(value, replacements: dict[int, object]):
        if id(value) in replacements:
            return replacements[id(value)]
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            changes = {f.name: replacements[id(getattr(value, f.name))]
                       for f in dataclasses.fields(value)
                       if id(getattr(value, f.name)) in replacements}
            if changes:
                return dataclasses.replace(value, **changes)
        return value

    def _set_attr(self, owner, name: str, value) -> None:
        self._undo.append((functools.partial(setattr, owner), name,
                           vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            restore, key, original = self._undo.pop()
            restore(key, original)

    # -- reporting

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Self seconds and call counts per layer over every recorded span."""
        self_ns = [end - start for _l, _n, _p, start, end in self.spans]
        for _layer, _name, parent, start, end in self.spans:
            if parent is not None:
                self_ns[parent] -= end - start
        totals = {layer: {"self_s": 0.0, "calls": 0}
                  for layer in ("harness",) + LAYERS}
        for (layer, *_rest), own in zip(self.spans, self_ns):
            totals[layer]["self_s"] += own / 1e9
            totals[layer]["calls"] += 1
        return totals

    def wrapper_calls(self) -> tuple[int, int]:
        """Calls that went through a span wrapper and a counting wrapper."""
        return (len(self.spans),
                sum(self.counters[key] for key in self._counting_keys))


def wrapper_cost_ns(calls: int = 20_000, repeats: int = 5) -> tuple[float, float]:
    """Nanoseconds one span wrapper and one counting wrapper add to a call.

    The tracing overhead of a pass is computed from these costs and the
    pass's call counts rather than by timing an untraced pass beside it:
    that would double the longest run, and on a shared machine the ratio of
    two passes moves by more than the overhead it is meant to show.  The
    minimum over repeats is the cost free of interference.
    """
    def noop():
        return None

    tracer = Tracer()
    spanned = tracer.wrap("harness", "noop", noop)
    counted = tracer.counting("noop", noop)

    def per_call(fn) -> float:
        best = None
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
            tracer.spans.clear()
        return best / calls

    bare = per_call(noop)
    return per_call(spanned) - bare, per_call(counted) - bare
