"""Self-tests of the benchmark (not of erasurelab).

    python3 -m unittest discover -s perfbench/tests -p "check_*.py"

They run the benchmark as a harness would, from the root of the checkout,
and take a few minutes. The file name keeps them out of the repository's
pytest run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORKLOADS = ("verify-pass", "verify-fail", "search", "stream")
# counters that depend only on the seed
REPEATABLE = ("patterns_generated", "slots_encoded", "diagonals_decoded")


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(BENCH.relative_to(ROOT) / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return done.returncode, last, done


class TracedRunsRepeat(unittest.TestCase):
    def test_counts_repeat_for_one_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    rc, last, _ = bench("--workload", workload, "--seed", "7",
                                        "--seconds", "1", "--trace", "1")
                    self.assertEqual(rc, 0, last)
                    result = json.loads(last)
                    self.assertTrue(result["correct"])
                    runs.append({
                        name: m["value"]
                        for name, m in result["metrics"].items()
                        if name.endswith("_calls") or name.split(".")[-1] in REPEATABLE
                    })
                self.assertEqual(runs[0], runs[1])
                self.assertGreater(sum(runs[0].values()), 0)


class SecondSeed(unittest.TestCase):
    def test_every_check_passes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, last, _ = bench("--workload", workload, "--seed", "2",
                                    "--seconds", "1", "--trace", "0")
                self.assertEqual(rc, 0, last)
                result = json.loads(last)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)


class WithoutThePackage(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        # a directory holding only BENCHMARK.json and the benchmark
        with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as tmp:
            shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                            ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            rc, last, _ = bench("--workload", "verify-pass", "--seed", "1",
                                "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(rc, 0)
        self.assertNotIn('"correct"', last)


if __name__ == "__main__":
    unittest.main()
