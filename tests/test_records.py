"""The value records of the package: immutable, compared by value, shown as
Name(field=value, ...), and validated where the constructor validated."""

import ast
import copy
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import dyckposet
from dyckposet import (DyckPath, LabelledDyckPath, ParkingFunction, Partition,
                       SimpleGraph, antichain_census, build_poset,
                       cell_stats, chain_census, hook_lengths,
                       parking_census, parking_to_labelled, path_stats,
                       poset_census, qt_census, vectors_of, verify_sequence)
from dyckposet import oeis

SRC = Path(dyckposet.__file__).parent
# The stdlib packages and modules, by top-level name, that
# `import dyckposet.cli` loads on a bare CPython 3.11 interpreter;
# underscore-named accelerator modules are left out
CLI_STDLIB_IMPORTS = frozenset("""
    __future__ argparse bisect collections contextlib copyreg decimal enum
    fractions functools genericpath gettext itertools json keyword math
    numbers operator os posixpath random re reprlib stat types typing
    warnings""".split())


def _examples():
    """One instance of every public record class, keyed by the class."""
    poset = build_poset(3)
    report = verify_sequence("A000108", 3)
    labelled = parking_to_labelled(ParkingFunction((1, 1, 2)))
    found = [
        DyckPath("NNEE"),
        Partition((2, 1)),
        cell_stats(Partition((2, 1)))[(1, 1)],
        path_stats(DyckPath("NNENEE")),
        poset,
        antichain_census(poset),
        poset_census(poset),
        chain_census(poset),
        qt_census(3),
        hook_lengths(Partition((2, 1))),
        ParkingFunction((1, 1, 2)),
        labelled,
        vectors_of(labelled)[0],
        parking_census(3),
        report.lines[0],
        report,
        SimpleGraph(2, frozenset({(0, 1)})),
        oeis.REGISTRY["A000108"],
    ]
    return {type(record): record for record in found}


EXAMPLES = _examples()


def _record_classes():
    """Every public named tuple of the package's modules."""
    return {obj for module in vars(dyckposet).values()
            if inspect.ismodule(module)
            for name, obj in vars(module).items()
            if inspect.isclass(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__ and hasattr(obj, "_fields")}


def test_every_record_class_has_an_example():
    assert _record_classes() | {DyckPath} == set(EXAMPLES)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
class TestContract:
    def test_fields_refuse_assignment(self, cls):
        record = EXAMPLES[cls]
        names = ("_offsets", "area") if cls is DyckPath else record._fields
        for name in names:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            assert getattr(record, name) is value
        assert not hasattr(record, "__dict__")

    def test_repr_names_the_fields(self, cls):
        record = EXAMPLES[cls]
        if cls is DyckPath:
            assert repr(record) == f"DyckPath({record.steps!r})"
            return
        shown = ", ".join(f"{name}={getattr(record, name)!r}"
                          for name in record._fields)
        assert repr(record) == f"{cls.__name__}({shown})"

    def test_copies_equal_the_original(self, cls):
        record = EXAMPLES[cls]
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


class TestDyckPathIdentity:
    def test_equal_to_no_other_type(self):
        assert DyckPath("NE") != "NE"
        assert DyckPath("NE") != ("NE",)

    def test_deletion_refused(self):
        with pytest.raises(AttributeError):
            del DyckPath("NE").steps


@pytest.mark.parametrize("build, message", [
    (lambda: Partition((1, 2)), "weakly decreasing"),
    (lambda: Partition((2, 0)), "positive"),
    (lambda: ParkingFunction((2, 2)), "not a parking function"),
    (lambda: ParkingFunction((0, 1)), "out of range"),
    (lambda: LabelledDyckPath(DyckPath("NNEE"), (2, 1)),
     "increase up each column"),
    (lambda: LabelledDyckPath(DyckPath("NENE"), (1, 1)), "permutation"),
    (lambda: SimpleGraph(2, frozenset({(0, 0)})), "loops"),
    (lambda: SimpleGraph(2, frozenset({(1, 0)})), "sorted pairs"),
    (lambda: SimpleGraph(2, frozenset({(0, 2)})), "sorted pairs"),
    # _replace runs the same checks
    (lambda: Partition((2, 1))._replace(parts=(1, 2)), "weakly decreasing"),
    (lambda: ParkingFunction((1, 1))._replace(prefs=(2, 2)),
     "not a parking function"),
    (lambda: LabelledDyckPath(DyckPath("NNEE"), (1, 2))._replace(
        labels=(2, 1)), "increase up each column"),
    (lambda: SimpleGraph(2, frozenset())._replace(vertex_count=-1),
     "non-negative"),
])
def test_validating_constructors_reject(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("record", [
    Partition([2, 1]),
    ParkingFunction([1, 1]),
    LabelledDyckPath(DyckPath("NNEE"), [1, 2]),
    SimpleGraph(3, {(0, 1), (1, 2)}),
], ids=lambda record: type(record).__name__)
def test_sequence_fields_are_stored_hashable(record):
    # a list or set argument is stored as a tuple or frozenset
    assert not any(isinstance(value, (list, set)) for value in record)
    assert hash(record) == hash(type(record)(*record))


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", "")


class TestStartUp:
    """Every CLI call imports the whole package, so what it imports is part
    of every command's time.  Value records are named tuples or slotted
    classes: import dataclasses loads inspect, ast, dis, tokenize and more,
    7-9 ms of start-up, and each dataclass then generates and execs its
    methods.  oeis keeps its compute functions in a module-level table, not
    in its records, so that the benchmark tracer can rebind them."""

    @staticmethod
    def _modules():
        return {path.stem: ast.parse(path.read_text())
                for path in sorted(SRC.glob("*.py"))}

    def test_no_class_is_a_dataclass(self):
        decorated = {(module, node.name)
                     for module, tree in self._modules().items()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef)
                     and any(_decorator_name(d) == "dataclass"
                             for d in node.decorator_list)}
        assert decorated == set()

    def test_no_module_imports_dataclasses(self):
        importers = set()
        for module, tree in self._modules().items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "dataclasses" for name in names):
                    importers.add(module)
        assert importers == set()

    @staticmethod
    def _cli_import(*flags: str) -> tuple[str, str]:
        """Two space-separated lists from a fresh interpreter that imports
        the CLI: the modules the import added, and every module loaded."""
        script = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "before = set(sys.modules); import dyckposet.cli; "
                  "print(*sorted(set(sys.modules) - before)); "
                  "print(*sorted(sys.modules))")
        result = subprocess.run(
            [sys.executable, *flags, "-c", script, str(SRC.parent)],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        added, loaded = result.stdout.splitlines()
        return added, loaded

    def test_cli_import_loads_no_stdlib_module_beyond_the_pinned_set(self):
        # set-up time is most of every benchmark workload: what the CLI
        # imports may shrink, not grow.  -S skips site and the .pth files,
        # which preload modules of their own
        added, _ = self._cli_import("-S")
        loaded = {name.partition(".")[0] for name in added.split()}
        assert "dyckposet" in loaded
        extra = {name for name in loaded - CLI_STDLIB_IMPORTS
                 if name != "dyckposet" and not name.startswith("_")}
        assert extra == set()

    def test_cli_import_with_site_loads_no_dataclasses(self):
        # the benchmark's environment, where site and its .pth files run
        # first
        _, loaded = self._cli_import()
        assert "dyckposet.cli" in loaded.split()
        assert {"dataclasses", "inspect"}.isdisjoint(loaded.split())
