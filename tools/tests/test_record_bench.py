#!/usr/bin/env python3
"""Tests for tools/record_bench.py on canned perfbench results.

Nothing is built or timed: perfbench runs are either a fake that
returns canned metrics or a stub perfbench/run.py that prints a
canned result line, so each test takes milliseconds.
"""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location(
    "record_bench", HERE.parent / "record_bench.py")
rb = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rb)

TMP = Path("/record-bench-tmp")
BASE, CHANGE = TMP / "base", TMP / "change"
METRICS = {"sim_mips": 3.0, "sim_ipc": 1.35, "setup_s": 2.0,
           "peak_rss_mb": 14.0, "op_p50_ms": 15000.0, "op_tail_ms": 15500.0}


def canned_line(correct=True, **values):
    metrics = dict(METRICS, **values)
    return json.dumps({"correct": correct, "attempted": 12, "failed": 0,
                       "metrics": {n: {"value": v, "unit": "u"}
                                   for n, v in metrics.items()}})


class FakeRuns:
    """Stands in for run_perfbench: logs each call and returns
    METRICS with the change side's values scaled per metric."""

    def __init__(self, change_scale=None, fail=None):
        self.calls = []
        self.change_scale = change_scale or {}
        self.fail = fail

    def __call__(self, tree, workload, seed, seconds):
        side = "base" if tree == BASE else "change"
        self.calls.append((side, workload, seed))
        if (side, seed) == self.fail:
            return None
        values = dict(METRICS)
        if side == "change":
            for name, scale in self.change_scale.items():
                values[name] *= scale(seed) if callable(scale) else scale
        return values


class RecordBenchTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.history = Path(tmp.name) / "BENCH_wallclock.json"
        revs = {"status": "", "rev-parse": "abc1234"}
        for target, value in (
                ("HISTORY", self.history),
                ("git", lambda *a: revs[a[0]]),
                ("checkout", lambda rev, dest: None),
                ("build", lambda tree: None)):
            patcher = mock.patch.object(rb, target, value)
            patcher.start()
            self.addCleanup(patcher.stop)

    def main(self, fake, *argv):
        """main() with `fake` runs in checkouts under TMP; returns
        (exit status, stdout)."""
        out = io.StringIO()
        with mock.patch.object(rb, "run_perfbench", fake), \
                mock.patch.object(rb.tempfile, "TemporaryDirectory",
                                  lambda prefix: contextlib.nullcontext(
                                      str(TMP))), \
                contextlib.redirect_stdout(out):
            status = rb.main(["--seconds", "1", *argv])
        return status, out.getvalue()

    def test_pairs_alternate_which_side_runs_first(self):
        fake = FakeRuns()
        with mock.patch.object(rb, "run_perfbench", fake):
            rb.run_pairs({"base": BASE, "change": CHANGE}, "paper_sweep",
                         4, 1)
        self.assertEqual([(s, seed) for s, _, seed in fake.calls],
                         [("base", 1), ("change", 1), ("change", 2),
                          ("base", 2), ("base", 3), ("change", 3),
                          ("change", 4), ("base", 4)])

    def test_gate_fails_just_below_its_constant(self):
        below = rb.GATE_MIN_RATIO - 0.005
        status, out = self.main(FakeRuns({"sim_mips": below}),
                                "--pairs", "3", "--workload", "paper_sweep")
        self.assertEqual(status, 1, out)
        self.assertIn("FAIL", out)

    def test_gate_passes_just_above_its_constant(self):
        above = rb.GATE_MIN_RATIO + 0.005
        status, out = self.main(FakeRuns({"sim_mips": above}),
                                "--pairs", "3", "--workload", "paper_sweep")
        self.assertEqual(status, 0, out)

    def test_gate_takes_the_median_pair(self):
        # Two of five pairs far below the gate, three above: a pass.
        ratios = {1: 0.5, 2: 0.6, 3: 1.0, 4: 1.0, 5: 1.0}
        status, out = self.main(
            FakeRuns({"sim_mips": lambda seed: ratios[seed]}),
            "--pairs", "5", "--workload", "paper_sweep")
        self.assertEqual(status, 0, out)

    def test_gate_ignores_other_workloads(self):
        status, out = self.main(FakeRuns({"sim_mips": 0.5}),
                                "--pairs", "2", "--workload", "serve_mixed")
        self.assertEqual(status, 0, out)
        self.assertIn("nothing gated", out)

    def test_sim_ipc_mismatch_is_reported_not_failed(self):
        status, out = self.main(
            FakeRuns({"sim_ipc": lambda seed: 1.1 if seed == 2 else 1.0}),
            "--pairs", "3", "--workload", "paper_sweep")
        self.assertEqual(status, 0, out)
        self.assertIn("behaviour change: paper_sweep pair 1 (seed 2)", out)
        self.assertEqual(out.count("behaviour change"), 1)

    def test_a_failed_run_records_nothing(self):
        self.history.write_text('{"bench": "wallclock", "history": []}\n')
        before = self.history.read_bytes()
        with self.assertRaises(SystemExit) as cm:
            self.main(FakeRuns(fail=("change", 2)), "--pairs", "3",
                      "--record", "--workload", "paper_sweep")
        self.assertIn("change run of paper_sweep seed 2 failed",
                      str(cm.exception.code))
        self.assertEqual(self.history.read_bytes(), before)

    def test_record_appends_to_old_schema_history(self):
        old = {"recorded_at": "2026-08-08T14:28:07Z", "git_rev": "830a7e7",
               "dirty": False, "cycles_per_run": 2000000,
               "runs": [{"solver": "expm", "threads": 1,
                         "sim_cycles_per_second": 2959577}]}
        self.history.write_text(json.dumps({"bench": "wallclock",
                                            "history": [old]}))
        status, _ = self.main(FakeRuns({"sim_mips": 1.1}), "--pairs", "4",
                              "--record")
        self.assertEqual(status, 0)
        history = json.loads(self.history.read_text())["history"]
        self.assertEqual(history[0], old)
        entry = history[1]
        self.assertEqual(entry["kind"], "perfbench_ab")
        self.assertEqual((entry["git_rev"], entry["base_rev"]),
                         ("abc1234", "abc1234"))
        self.assertEqual((entry["pairs"], entry["run_seconds"]), (4, 1.0))
        self.assertFalse(entry["dirty"])
        self.assertEqual(sorted(entry["workloads"]),
                         sorted(w["name"] for w in rb.SPEC["workloads"]))
        mips = entry["workloads"]["paper_sweep"]["metrics"]["sim_mips"]
        self.assertAlmostEqual(mips["ratio"]["median"], 1.1)
        self.assertAlmostEqual(mips["change"]["median"], 3.3)
        self.assertEqual(set(mips["base"]), {"median", "q1", "q3"})
        self.assertEqual(set(mips["ratio"]), {"median", "min", "max"})


class CheckoutTest(unittest.TestCase):
    def test_change_side_snapshots_the_tree_as_it_stands(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        root, snap = Path(tmp.name) / "repo", Path(tmp.name) / "snap"
        (root / "perfbench").mkdir(parents=True)
        for name in ("perfbench/run.py", "BENCHMARK.json", "tracked",
                     "deleted"):
            (root / name).write_text(name)
        (root / ".gitignore").write_text("ignored\n")
        subprocess.run(["git", "init", "-q", str(root)], check=True)
        subprocess.run(["git", "-C", str(root), "add", "-A"], check=True)
        (root / "deleted").unlink()
        (root / "untracked").write_text("u")
        (root / "ignored").write_text("i")
        with mock.patch.object(rb, "ROOT", root):
            rb.checkout(None, snap)
        self.assertEqual(
            sorted(str(p.relative_to(snap)) for p in snap.rglob("*")
                   if p.is_file()),
            [".gitignore", "BENCHMARK.json", "perfbench/run.py", "tracked",
             "untracked"])


class RunPerfbenchTest(unittest.TestCase):
    """run_perfbench against a stub perfbench/run.py."""

    def stub(self, body):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        tree = Path(tmp.name)
        (tree / "perfbench").mkdir()
        (tree / "perfbench" / "run.py").write_text(body)
        return rb.run_perfbench(tree, "paper_sweep", 1, 1)

    def test_reads_the_last_line(self):
        got = self.stub(f"print('table')\nprint({canned_line()!r})\n")
        self.assertEqual(got, METRICS)

    def test_incorrect_run_fails(self):
        self.assertIsNone(self.stub(
            f"print({canned_line(correct=False)!r})\n"))

    def test_nonzero_exit_fails(self):
        self.assertIsNone(self.stub(
            f"import sys\nprint({canned_line()!r})\nsys.exit(1)\n"))

    def test_no_result_line_fails(self):
        self.assertIsNone(self.stub("pass\n"))


if __name__ == "__main__":
    sys.argv[1:] = []
    unittest.main(verbosity=2)
