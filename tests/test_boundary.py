"""The boundary of the package: src/dyckposet holds what the CLI and the
acceptance tests run.  A reference route that only the tests run lives with
the tests, in the module that uses it or, when two modules do, in
tests/oracles.py."""

import functools
import importlib
import inspect
import json
import sys
import types
from pathlib import Path

import dyckposet
import test_acceptance
from dyckposet import build_poset, cli, parking, poset, qt, tableaux
from dyckposet.incidence import ExactMatrix
from dyckposet.polynomials import BiPoly, UniPoly

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(dyckposet.__file__).parent
GOLDEN_OPS = json.loads(
    (ROOT / "bench" / "golden" / "stdout.json").read_text())["ops"]

VALUE = "value semantics of a record: it compares, hashes and shows itself " \
        "by value, pickles, and refuses assignment"
VALIDATES = "_replace builds through _make, so _make runs the checks of " \
            "__new__"
ARITHMETIC = "polynomial arithmetic for callers of the library; " \
             "test_polynomials checks it"
SHOWN = "shows the values in the message of a failed agree check (exit 4)"
BENCH = "the benchmark reads it by name until its harness is mended; see " \
        "test_names_the_benchmark_reads_still_exist"
# module.qualname of each function that no CLI op and no acceptance test
# calls, and why it stays in src
ALLOWED = {
    "paths.DyckPath.__setattr__": VALUE,
    "paths.DyckPath.__delattr__": VALUE,
    "paths.DyckPath.__eq__": VALUE,
    "paths.DyckPath.__hash__": VALUE,
    "paths.DyckPath.__reduce__": VALUE,
    "paths.DyckPath.__repr__": VALUE,
    "paths.Partition._make": VALIDATES,
    "parking.ParkingFunction._make": VALIDATES,
    "parking.LabelledDyckPath._make": VALIDATES,
    "chromatic.SimpleGraph._make": VALIDATES,
    "polynomials._SparsePoly.__hash__": ARITHMETIC,
    "polynomials._SparsePoly.__neg__": ARITHMETIC,
    "polynomials._SparsePoly.__sub__": ARITHMETIC,
    "polynomials._SparsePoly.__rsub__": ARITHMETIC,
    "polynomials.UniPoly.x": ARITHMETIC,
    "polynomials.UniPoly.__pow__": ARITHMETIC,
    "polynomials.UniPoly.__repr__": SHOWN,
    "polynomials.BiPoly.__repr__": SHOWN,
    # bench/tracer.py patches both __mul__s, and no command multiplies
    # polynomials since the qt recurrences run on packed ints;
    # bench/tests/test_harness.py expects the binding qt.path_stats and
    # calls enumerate_labelled_paths
    "polynomials.UniPoly.__mul__": BENCH,
    "polynomials.BiPoly.__mul__": BENCH,
    "paths.path_stats": BENCH,
    "parking.enumerate_labelled_paths": BENCH,
    "parking._increasing_fillings": BENCH,
}

# comprehensions run inside the function that holds them
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _modules():
    return [importlib.import_module(
        "dyckposet" if path.stem == "__init__" else f"dyckposet.{path.stem}")
        for path in sorted(SRC.glob("*.py"))]


def _functions(code):
    """The code of every function and lambda compiled inside code, nested
    ones too; class bodies run at import and are left out."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if (const.co_flags & inspect.CO_NEWLOCALS
                    and const.co_name not in COMPREHENSIONS):
                yield const
            yield from _functions(const)


def _key(code):
    # a decorated function's co_firstlineno is its first decorator's line
    # in both the live and the compiled code
    return code.co_filename, code.co_qualname, code.co_firstlineno


def _defined(modules):
    """module.qualname -> (key, "file:line") of each function in src."""
    found = {}
    for module in modules:
        source = Path(module.__file__)
        short = module.__name__.rpartition(".")[2]
        top = compile(source.read_text(), module.__file__, "exec")
        for code in _functions(top):
            where = f"{source.relative_to(ROOT)}:{code.co_firstlineno}"
            found[f"{short}.{code.co_qualname}"] = (_key(code), where)
    return found


def _entered(run):
    """The code objects entered while run() runs."""
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return entered


def _golden_ops_and_acceptance_tests(capsys):
    for op, golden in GOLDEN_OPS.items():
        assert cli.main(op.split()) == golden["exit"], op
    fixtures = {"posets": functools.cache(build_poset), "capsys": capsys}
    for name, test in vars(test_acceptance).items():
        if name.startswith("test_"):
            capsys.readouterr()
            test(**{arg: fixtures[arg]
                    for arg in inspect.signature(test).parameters})
    capsys.readouterr()


def test_every_src_function_runs_under_the_cli_or_the_acceptance_tests(
        capsys):
    modules = _modules()
    # a cache hit enters no function: start every cache empty
    for module in modules:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    entered = {_key(code) for code in
               _entered(lambda: _golden_ops_and_acceptance_tests(capsys))}
    unreached = {name: where for name, (key, where)
                 in _defined(modules).items()
                 if key not in entered}
    stray = [f"{where} {name}" for name, where in unreached.items()
             if name not in ALLOWED]
    assert stray == [], (
        "functions that no golden CLI op and no acceptance test calls; move "
        "each into the tests that use it, delete it, or allowlist it with a "
        "reason:\n" + "\n".join(stray))
    stale = sorted(set(ALLOWED) - set(unreached))
    assert stale == [], f"allowlisted but called, or gone: {stale}"


def test_names_the_benchmark_reads_still_exist():
    # bench/tracer.py patches these and bench/tests calls them; the bench
    # self-tests are not part of this suite
    assert "__matmul__" in vars(ExactMatrix)
    assert "__mul__" in vars(UniPoly) and "__mul__" in vars(BiPoly)
    for module, names in [
            (qt, ("_gh_term", "enumerate_paths", "path_stats", "qt_catalan",
                  "gh_evaluate", "gh_sample_points")),
            (poset, ("enumerate_paths",)),
            (parking, ("enumerate_labelled_paths",)),
            (tableaux, ("maxchain_tableau_bijection_check", "build_poset",
                        "maximal_chains")),
            (cli, ("hasse_chromatic", "main"))]:
        for name in names:
            assert callable(getattr(module, name, None)), \
                f"{module.__name__}.{name}"
