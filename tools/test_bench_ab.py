#!/usr/bin/env python3
"""Checks tools/bench_ab.py's verdict logic on canned benchmark result lines.

    python3 tools/test_bench_ab.py

Standard-library unittest only; runs no benchmark and no git command.
"""
import io
import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import bench_ab  # noqa: E402

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
PLAYERS = {"name": "players_ok", "better": "higher", "bound": 0.15}

# Ten wall_s readings of one binary on one workload (seeds 1..10): the
# spread of two identical builds run back to back.
HEAD_A = [9.05, 8.71, 9.40, 8.96, 9.22, 8.84, 9.11, 9.31, 8.90, 9.02]
HEAD_B = [9.12, 8.93, 9.01, 9.28, 8.80, 9.19, 8.98, 9.07, 9.35, 8.86]


def result_line(wall_s, players_ok=800.0, correct=True):
    """One perfbench result line, as dynbench prints it last."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "players_ok": {"value": players_ok, "unit": "players"}}
    return json.dumps({"correct": correct, "attempted": 100, "failed": 0, "metrics": metrics})


def parsed(values, **kw):
    out = "# {\"workload\": \"elastic\"}\nmetric  value  unit\n"
    return [bench_ab.parse_result_line(out + result_line(v, **kw)) for v in values]


class ParseTest(unittest.TestCase):
    def test_reads_metrics_from_the_last_line(self):
        (m,) = parsed([7.5], players_ok=790.0)
        self.assertEqual(m, {"wall_s": 7.5, "players_ok": 790.0})

    def test_rejects_a_failed_run(self):
        with self.assertRaises(ValueError):
            bench_ab.parse_result_line(result_line(1.0, correct=False))


class VerdictTest(unittest.TestCase):
    def wall(self, values):
        return [m["wall_s"] for m in parsed(values)]

    def test_head_vs_head_reads_no_change(self):
        v = bench_ab.verdict(WALL, self.wall(HEAD_A), self.wall(HEAD_B))
        self.assertEqual(v["verdict"], "no change")
        self.assertFalse(v["gain"])
        lo, hi = v["ci"]
        self.assertLess(lo, 1.0)
        self.assertGreater(hi, 1.0)

    def test_identical_samples_read_no_change(self):
        v = bench_ab.verdict(PLAYERS, [800.0] * 10, [800.0] * 10)
        self.assertEqual(v["verdict"], "no change")
        self.assertEqual(v["ci"], (1.0, 1.0))
        self.assertEqual(v["wins"], 0)

    def test_thirty_percent_faster_reads_change(self):
        faster = [x * 0.7 for x in HEAD_B]
        v = bench_ab.verdict(WALL, self.wall(HEAD_A), self.wall(faster))
        self.assertEqual(v["verdict"], "change (better)")
        self.assertEqual(v["wins"], 10)
        self.assertTrue(v["gain"])
        self.assertAlmostEqual(v["ratio"], 0.7, delta=0.05)

    def test_thirty_percent_slower_is_a_regression_past_a_25_percent_bound(self):
        slower = [x * 1.3 for x in HEAD_B]
        v = bench_ab.verdict(WALL, self.wall(HEAD_A), self.wall(slower))
        self.assertEqual(v["verdict"], "REGRESSION")

    def test_shift_inside_the_bound_is_a_change_not_a_regression(self):
        slower = [x * 1.1 for x in HEAD_B]
        v = bench_ab.verdict(WALL, self.wall(HEAD_A), self.wall(slower))
        self.assertEqual(v["verdict"], "change (worse)")

    def test_higher_is_better_metrics_flip_direction(self):
        v = bench_ab.verdict(PLAYERS, [800.0] * 10, [560.0] * 10)
        self.assertEqual(v["verdict"], "REGRESSION")
        v = bench_ab.verdict(PLAYERS, [800.0] * 10, [1040.0] * 10)
        self.assertEqual(v["verdict"], "change (better)")
        self.assertEqual(v["wins"], 10)


class ReportTest(unittest.TestCase):
    def rows(self, base, head, base_commit="a" * 40):
        rows = []
        for seed, (b, h) in enumerate(zip(base, head), start=1):
            for side, value in (("base", b), ("head", h)):
                rows.append({"workload": "elastic", "seed": seed, "side": side,
                             "base": base_commit, "metrics": parsed([value])[0]})
        return rows

    def spec(self):
        return {"workloads": [{"name": "elastic"}], "end_to_end": [WALL, PLAYERS]}

    def test_report_passes_head_vs_head(self):
        out = io.StringIO()
        self.assertTrue(bench_ab.report(self.spec(), self.rows(HEAD_A, HEAD_B), out))
        self.assertIn("no change", out.getvalue())
        self.assertNotIn("REGRESSION", out.getvalue())

    def test_report_fails_on_a_regression(self):
        out = io.StringIO()
        slower = [x * 1.3 for x in HEAD_B]
        self.assertFalse(bench_ab.report(self.spec(), self.rows(HEAD_A, slower), out))
        self.assertIn("REGRESSION", out.getvalue())

    def test_report_refuses_rows_from_two_base_commits(self):
        rows = self.rows(HEAD_A[:5], HEAD_B[:5]) + self.rows(HEAD_A[5:], HEAD_B[5:], "b" * 40)
        for i, r in enumerate(rows[10:]):
            r["seed"] = 6 + i // 2
        with self.assertRaisesRegex(ValueError, "mix base commits"):
            bench_ab.report(self.spec(), rows, io.StringIO())

    def test_report_refuses_a_repeated_run(self):
        rows = self.rows(HEAD_A, HEAD_B)
        rows.append(dict(rows[0]))
        with self.assertRaisesRegex(ValueError, "repeated run"):
            bench_ab.report(self.spec(), rows, io.StringIO())


class ExportTest(unittest.TestCase):
    def test_refuses_a_work_directory_holding_another_commit(self):
        with tempfile.TemporaryDirectory() as d:
            work = pathlib.Path(d)
            (work / "base-src").mkdir()
            (work / "BASE_COMMIT").write_text("a" * 40 + "\n")
            self.assertEqual(bench_ab.export_base("a" * 40, work), work / "base-src")
            with self.assertRaises(SystemExit):
                bench_ab.export_base("b" * 40, work)


if __name__ == "__main__":
    unittest.main()
