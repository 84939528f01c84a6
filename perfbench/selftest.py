"""Self-test of the benchmark: tiny runs of every workload, in both modes.

    python3 perfbench/selftest.py

Run from the root of a boardpile checkout.  Checks that every metric named
in BENCHMARK.json is reported with its unit, that a wrong expected answer is
counted as a failure rather than passed, that the two reference firing
loops agree, and that the benchmark refuses to report without the program.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_run(workload: str, trace: bool) -> dict:
    result, _ = run.measure(workload, seed=7, seconds=0.01, trace=trace, root=ROOT, tiny=True)
    return result


class MetricsReported(unittest.TestCase):
    def check_metrics(self, result: dict, spec: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in spec},
        )
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_reports_every_metric(self):
        self.assertEqual(sorted(workloads.WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                result = tiny_run(workload, trace=False)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                ok = result["metrics"]["ok_ratio"]["value"]
                self.assertAlmostEqual(ok, 1 - result["failed"] / result["attempted"])
            with self.subTest(workload=workload, trace=1):
                self.check_metrics(tiny_run(workload, trace=True), SPEC["per_layer"])


class WrongAnswersCount(unittest.TestCase):
    def test_corrupted_expected_value_is_a_failure(self):
        def corrupted(n_max):
            return [a + 1 for a in oracles.unlabelled_counts(n_max)]

        with mock.patch.object(oracles, "cross_checked_counts", corrupted):
            result = tiny_run("census", trace=False)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1)

    def test_corrupted_trajectory_is_a_failure(self):
        reference = oracles.trajectory

        def shifted(step, start, steps):
            rows = reference(step, start, steps)
            return rows[:-1] + [tuple(x + 1 for x in rows[-1])]

        with mock.patch.object(oracles, "trajectory", shifted):
            result = tiny_run("orbits-sparse", trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)  # the json and the csv simulate jobs


class References(unittest.TestCase):
    def test_reference_steppers_agree(self):
        rng = random.Random(3)
        for n, p in ((40, 0.9), (60, 0.1)):
            edges = [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            stacks = tuple(rng.randint(-9, 9) for _ in range(n))
            dense = oracles.trajectory(oracles.bitset_stepper(n, edges), stacks, 30)
            sparse = oracles.trajectory(oracles.edge_stepper(n, edges), stacks, 30)
            self.assertEqual(dense, sparse)

    def test_counting_references_agree(self):
        self.assertEqual(oracles.cross_checked_counts(12)[1:], [
            1, 2, 6, 19, 61, 196, 629, 2017, 6466, 20727, 66441, 212980,
        ])
        self.assertEqual(oracles.transfer_matrix_counts(4, labelled=True)[1:], [1, 3, 19, 163])


class Refusal(unittest.TestCase):
    def test_no_result_without_the_program(self):
        empty = ROOT / run.OUT_DIR / "selftest-empty"
        empty.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "census", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
