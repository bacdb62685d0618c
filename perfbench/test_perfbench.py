#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py      (from the root of the source tree)

Builds the benchmark like run.py does, then checks that a tiny size of each
workload prints every metric BENCHMARK.json names, untraced and traced (the
elastic runs pass the fig7 correctness gate on the checked-in series), and
that the gate fails on a perturbed copy.
"""
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, str(HERE))
import run as bench_run  # noqa: E402

FIG7 = ROOT / "fig7_elasticity.csv"


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench_run.build()
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def bench(self, *args):
        return subprocess.run([str(self.binary), *args], capture_output=True, text=True,
                              timeout=170)

    @staticmethod
    def result(proc):
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_tiny_workloads_print_every_metric(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace), \
                        tempfile.TemporaryDirectory() as out:
                    proc = self.bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                                      "--trace", str(trace), "--tiny", "--fig7-csv", str(FIG7),
                                      "--out-dir", out)
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    r = self.result(proc)
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[section]}
                    got = {name: m["unit"] for name, m in r["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace:
                        stem = pathlib.Path(out) / f"{workload}-seed3"
                        events = json.loads(stem.with_suffix(".trace.json").read_text())
                        self.assertTrue(any(e["name"] == "run_until"
                                            for e in events["traceEvents"]))
                        rows = stem.with_suffix(".counters.csv").read_text().splitlines()
                        self.assertGreater(len(rows), 1)
                        summary = stem.with_suffix(".summary.txt").read_text()
                        for name in want:
                            self.assertIn(name, summary)

    def test_fig7_gate_fails_on_a_perturbed_series(self):
        lines = FIG7.read_text().splitlines(keepends=True)
        row = lines[20].split(",")
        row[1] = str(int(row[1]) + 1)  # one more player in one sample
        lines[20] = ",".join(row)
        with tempfile.TemporaryDirectory() as tmp:
            perturbed = pathlib.Path(tmp) / "fig7_elasticity.csv"
            perturbed.write_text("".join(lines))
            # The elastic workload reports the failure instead of numbers.
            proc = self.bench("--workload", "elastic", "--seed", "3", "--seconds", "0.2",
                              "--trace", "0", "--tiny", "--fig7-csv", str(perturbed),
                              "--out-dir", tmp)
            self.assertEqual(proc.returncode, 1)
            r = self.result(proc)
            self.assertFalse(r["correct"])
            self.assertEqual(r["metrics"], {})
            self.assertIn("fig7 gate", proc.stdout)
            self.assertIn("line 21", proc.stdout)


if __name__ == "__main__":
    unittest.main()
