#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of exprk).

Usage (from the repository root): python3 perfbench/selftest.py

Checks that a wrong result is counted as a failed operation, that every
metric named in BENCHMARK.json appears exactly once per workload with its
unit, and that the benchmark refuses to run without the exprk sources.
The metric check runs each workload for one pass, traced and untraced,
and takes about two minutes.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

from exprk import convergence  # noqa: E402

import workloads as wl  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED = json.loads((run.HERE / "expected.json").read_text(encoding="utf-8"))


def report_from(expected):
    """A ConvergenceReport holding exactly the recorded seed values."""
    rows = tuple(convergence.ConvergenceRow(2.0 ** -(4 + i), *errs)
                 for i, errs in enumerate(expected["errors"]))
    return convergence.ConvergenceReport(rows=rows, fitted_order=dict(expected["orders"]),
                                         pairwise_orders={})


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in {keys}")
    return dict(pairs)


class WrongResultIsCounted(unittest.TestCase):
    def run_ops(self, ops):
        tally = run.Tally()
        run.run_pass(ops, wl.Ledger(), tally)
        return tally

    def study_op(self, report, csv_text="csv"):
        ops = wl.build("paper_study", 0, EXPECTED["paper_study"])
        op = next(op for op in ops if op.name == "study.rk3paper")
        return dataclasses.replace(op, run=lambda: (report, csv_text))

    def test_seed_values_pass(self):
        good = report_from(EXPECTED["paper_study"]["study.rk3paper"])
        tally = self.run_ops([self.study_op(good)])
        self.assertEqual((tally.attempted, tally.failed), (1, 0), tally.problems)

    def test_perturbed_error_fails(self):
        good = report_from(EXPECTED["paper_study"]["study.rk3paper"])
        row = dataclasses.replace(good.rows[-1], err_l2=good.rows[-1].err_l2 * 1.01)
        bad = dataclasses.replace(good, rows=good.rows[:-1] + (row,))
        tally = self.run_ops([self.study_op(good), self.study_op(bad)])
        self.assertEqual((tally.attempted, tally.failed), (2, 1), tally.problems)

    def test_wrong_fitted_order_fails(self):
        good = report_from(EXPECTED["paper_study"]["study.rk3paper"])
        bad = dataclasses.replace(good, fitted_order={**good.fitted_order, "linf": 3.0})
        self.assertEqual(self.run_ops([self.study_op(bad)]).failed, 1)

    def test_csv_change_between_passes_fails(self):
        good = report_from(EXPECTED["paper_study"]["study.rk3paper"])
        ledger, tally = wl.Ledger(), run.Tally()
        run.run_pass([self.study_op(good, "a\n")], ledger, tally)
        run.run_pass([self.study_op(good, "b\n")], ledger, tally)
        self.assertEqual((tally.attempted, tally.failed), (2, 1), tally.problems)

    def test_flipped_probe_verdict_fails(self):
        ops = wl.build("probe_sweep", 0, EXPECTED["probe_sweep"])
        smoothing = next(op for op in ops if op.name == "smoothing.g0.5")
        result = smoothing.run()
        flipped = dataclasses.replace(result, bounded=not result.bounded)
        wrong = dataclasses.replace(smoothing, run=lambda: flipped)
        tally = self.run_ops([smoothing, wrong])
        self.assertEqual((tally.attempted, tally.failed), (2, 1), tally.problems)

    def test_known_unbounded_verdict_is_expected(self):
        self.assertFalse(EXPECTED["probe_sweep"]["fourier.b0.49.linf.1k"]["bounded"])

    def test_nonzero_exit_and_exception_fail(self):
        def boom():
            raise RuntimeError("boom")
        check = wl.build("nonsym_kernel", 0, EXPECTED["nonsym_kernel"])[1].check
        ops = [wl.Op("check_order.x", "order_check_s", lambda: (1, ""), check),
               wl.Op("raises", "order_check_s", boom, check)]
        self.assertEqual(self.run_ops(ops).failed, 2)


class MetricsPerWorkload(unittest.TestCase):
    def run_bench(self, workload, trace):
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "0.001", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.strip().splitlines()[-1], object_pairs_hook=no_duplicates)

    def test_every_metric_once_with_unit(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    out = self.run_bench(workload, trace)
                    self.assertEqual(sorted(out), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in out["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                        if trace == 0:
                            self.assertGreater(metric["value"], 0, name)


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper_study",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
