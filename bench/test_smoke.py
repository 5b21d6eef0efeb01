"""Smoke test of the benchmark itself: one job per workload, untraced and
traced, must be judged correct and report exactly the metrics that
BENCHMARK.json names, with their units.

    python3 -m unittest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class SmokeTest(unittest.TestCase):
    def test_one_job_per_workload_reports_every_metric(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in spec["workloads"]:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run_bench(
                        ROOT, "--workload", workload["name"], "--seed", "0",
                        "--seconds", "1", "--trace", trace, "--jobs", "1",
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    reported = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(reported, {m["name"]: m["unit"] for m in spec[kind]})

    def test_refuses_a_tree_without_the_program(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "bench", Path(tmp) / "bench")
            proc = run_bench(Path(tmp), "--workload", "one-shot", "--seed", "0",
                             "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
