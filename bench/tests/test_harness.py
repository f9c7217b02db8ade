"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/tests
    python3 -m unittest discover -s bench/tests

They run the workload scripts at tiny orders in-process, and run.py itself
in scratch trees: with a corrupted golden file, and without sources.
Scratch files go under bench/results/, which git ignores.
"""

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import workload  # noqa: E402
from tracer import LAYER_MODULES, LAYERS, Tracer, layer_of  # noqa: E402
from dyckposet import (cli, incidence, oeis, parking, poset, qt,  # noqa: E402
                       tableaux)


def scratch_dir():
    (BENCH / "results").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=BENCH / "results")


def copy_bench(tree: Path) -> None:
    """Copy BENCHMARK.json and bench/ into a fresh tree, without results."""
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    shutil.copytree(BENCH, tree / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))


class ScriptTest(unittest.TestCase):
    def test_tiny_scripts_match_golden(self):
        golden = workload.load_golden()
        for name in workload.WORKLOADS:
            result = workload.run_pass(workload.script(name, 7, tiny=True),
                                       golden)
            self.assertEqual(result["failures"], [], name)

    def test_full_scripts_have_golden_outputs(self):
        golden = workload.load_golden()
        for name in workload.WORKLOADS:
            for op in workload.script(name, 7):
                if op.argv is not None:
                    self.assertIn(op.id, golden)
                    self.assertEqual(golden[op.id]["exit"], 0, op.id)

    def test_only_tables_depends_on_the_seed(self):
        ids = {seed: [op.id for op in workload.script("tables-n5", seed)]
               for seed in (1, 2)}
        self.assertNotEqual(ids[1], ids[2])
        self.assertEqual(ids[1], [op.id for op in
                                  workload.script("tables-n5", 1)])

    def test_failed_route_check_and_exception_are_counted(self):
        ops = [workload.Op(id="disagree", check=lambda: "routes differ"),
               workload.Op(id="raises", check=lambda: 1 // 0),
               workload.cli_op("catalan", "--n", 1),
               workload.cli_op("catalan", "--n", 99)]
        golden = workload.load_golden()
        failures = workload.run_pass(ops, golden)["failures"]
        self.assertEqual([f["op"] for f in failures],
                         ["disagree", "raises", "catalan --n 99"])
        self.assertIn("ZeroDivisionError", failures[1]["reason"])
        self.assertIn("no golden output", failures[2]["reason"])


class SamplerTest(unittest.TestCase):
    def test_sampled_pass_matches_golden_and_restores_the_handler(self):
        golden = workload.load_golden()
        handler = signal.getsignal(signal.SIGALRM)
        sampler = calibrate.Sampler()
        ops = workload.script("tables-n5", 7, tiny=True) * 3
        result = workload.run_pass(ops, golden, sampler=sampler)
        self.assertEqual(result["failures"], [])
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(result["kernel_runs"], 0)
        self.assertGreater(result["wall_s"], 0)
        self.assertGreater(result["kernel_wall_s"], 0)

    def test_short_interval_borrows_one_kernel_run(self):
        sampler = calibrate.Sampler()
        sampler.start()
        sampler.stop()
        report = sampler.report()
        self.assertEqual(report["kernel_runs"], 0)
        self.assertEqual(report["kernel_total_wall_s"], 0)
        self.assertGreater(report["kernel_wall_s"], 0)


class TraceTest(unittest.TestCase):
    def test_traced_stdout_equals_untraced(self):
        ops = [op for name in workload.WORKLOADS
               for op in workload.script(name, 7, tiny=True)
               if op.argv is not None]
        untraced = [workload.run_cli(op.argv) for op in ops]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [workload.run_cli(op.argv) for op in ops]
        finally:
            tracer.uninstall()
        self.assertEqual(traced, untraced)
        self.assertGreater(tracer.counters["incidence.matmul_calls"], 0)

    def test_uninstall_restores_every_binding(self):
        def bindings():
            modules = [m for n, m in sys.modules.items()
                       if n.split(".")[0] == "dyckposet"]
            state = {(m.__name__, k): id(v) for m in modules
                     for k, v in vars(m).items()}
            state.update({("COMMANDS", k): id(v)
                          for k, v in cli.COMMANDS.items()})
            state.update({("REGISTRY", k): id(v.compute)
                          for k, v in oeis.REGISTRY.items()})
            state["matmul"] = id(vars(incidence.ExactMatrix)["__matmul__"])
            return state

        before = bindings()
        tracer = Tracer()
        tracer.install()
        try:
            during = bindings()
        finally:
            tracer.uninstall()
        self.assertEqual(bindings(), before)
        changed = {key for key in before if during[key] != before[key]}
        for key in [("dyckposet.cli", "hasse_chromatic"),
                    ("dyckposet.poset", "enumerate_paths"),
                    ("dyckposet.qt", "enumerate_paths"),
                    ("dyckposet.qt", "path_stats"),
                    ("dyckposet.parking", "enumerate_paths"),
                    ("dyckposet.tableaux", "build_poset"),
                    ("dyckposet.tableaux", "maximal_chains"),
                    ("dyckposet", "build_poset"),
                    ("COMMANDS", "chains"), ("REGISTRY", "A000108"),
                    "matmul"]:
            self.assertIn(key, changed)

    def test_by_name_call_sites_record_spans(self):
        tracer = Tracer()
        tracer.install()
        try:
            tableaux.maxchain_tableau_bijection_check(3)
            qt.qt_catalan(3)
            parking.enumerate_labelled_paths(2)
            poset.build_poset(2)
            workload.run_cli(("chromatic", "--n", "2"))
        finally:
            tracer.uninstall()
        spans = {(name, tracer.spans[parent][1] if parent is not None
                  else None)
                 for _layer, name, parent, _s, _e in tracer.spans}
        for call, caller in [
                ("poset.build_poset", "tableaux.maxchain_tableau_bijection_check"),
                ("poset.maximal_chains", "tableaux.maxchain_tableau_bijection_check"),
                ("paths.enumerate_paths", "qt.qt_catalan"),
                ("paths.path_stats", "qt.qt_catalan"),
                ("paths.enumerate_paths", "parking.enumerate_labelled_paths"),
                ("paths.enumerate_paths", "poset.build_poset"),
                ("chromatic.hasse_chromatic", "cli.cmd_chromatic")]:
            self.assertIn((call, caller), spans)

    def test_every_spanned_function_has_a_reported_layer(self):
        for short in LAYER_MODULES:
            module = sys.modules[f"dyckposet.{short}"]
            for name in vars(module):
                self.assertIn(layer_of(short, name),
                              Tracer().layer_totals(), (short, name))

    def test_layer_self_times_sum_to_the_pass(self):
        golden = workload.load_golden()
        tracer = Tracer()
        result = workload.run_pass(workload.script("tables-n5", 7, tiny=True),
                                   golden, tracer)
        self.assertEqual(result["failures"], [])
        totals = tracer.layer_totals()
        self.assertEqual(set(totals), {"harness", *LAYERS})
        layer, name, parent, start, end = tracer.spans[0]
        self.assertEqual((layer, name, parent), ("harness", "pass", None))
        self.assertAlmostEqual(sum(t["self_s"] for t in totals.values()),
                               (end - start) / 1e9, places=6)
        report = workload.layer_report(tracer)
        self.assertGreater(report["cli.bytes_out"], 0)
        self.assertGreater(report["parking.functions"], 0)


class RunTest(unittest.TestCase):
    def run_bench(self, cwd, *args):
        return subprocess.run(
            [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
            cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_corrupted_golden_fails_the_run(self):
        captured = json.loads(workload.GOLDEN.read_text())
        captured["ops"]["catalan --n 3"]["stdout"] = \
            captured["ops"]["catalan --n 3"]["stdout"].replace("5", "6", 1)
        del captured["ops"]["qt --n 2"]
        with scratch_dir() as tmp:
            tree = Path(tmp)
            copy_bench(tree)
            # a copy, not a link: run.py refuses a package outside its src/
            shutil.copytree(ROOT / "src", tree / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
            (tree / "bench" / "golden" / "stdout.json").write_text(
                json.dumps(captured))
            proc = self.run_bench(tree, "--workload", "tables-n5",
                                  "--seed", "99991", "--seconds", "0")
            record = json.loads((tree / "bench" / "results" /
                                 "BENCH_tables-n5_seed99991_trace0.json")
                                .read_text())
        self.assertEqual(proc.returncode, 1, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)
        self.assertIn("FAILED catalan --n 3: stdout differs", proc.stdout)
        self.assertIn("FAILED qt --n 2: no golden output", proc.stdout)
        self.assertGreater(record["op_fail_ratio"], 0)

    def test_refuses_without_sources(self):
        with scratch_dir() as tmp:
            copy_bench(Path(tmp))
            proc = self.run_bench(tmp, "--workload", "chains-n6",
                                  "--seed", "1", "--seconds", "1")
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
