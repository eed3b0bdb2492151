#!/usr/bin/env python3
"""Tests for perfbench's output checks and for BENCHMARK.json agreeing with
the code. Run from the repository root:

    python3 perfbench/test_checks.py
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import unittest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BATCH_EXPECTED = [("uniform-small", 3, 4), ("inst/w00050.txt", 400, 8), ("bimodal", 20, 8)]
BATCH_GOOD = [
    "0 ok uniform-small n=3 m=4 makespan=16 lb=16 ratio=1.0000 blocks=3",
    "1 ok inst/w00050.txt n=400 m=8 makespan=1250 lb=1000 ratio=1.2500 blocks=371",
    "2 ok bimodal n=20 m=8 makespan=48 lb=32 ratio=1.5000 blocks=15",
]

SERVE_REQUESTS = [
    "open t0 m=4 scale=100",
    "open t1 m=6 scale=100",
    "submit t0 0 2 50",
    "submit t1 0 1 10",
    "submit t0 0 3 40",
    "query t0",
    "query t1",
]
SERVE_GOOD = [
    "0 ok open tenant=t0 m=4 scale=100",
    "1 ok open tenant=t1 m=6 scale=100",
    "2 ok submit tenant=t0 job=0",
    "3 ok submit tenant=t1 job=0",
    "4 ok submit tenant=t0 job=1",
    "5 ok schedule tenant=t0 jobs=2 makespan=3 lb=3",
    "6 ok schedule tenant=t1 jobs=1 makespan=1 lb=1",
]


def batch(lines):
    return checks.check_batch("".join(line + "\n" for line in lines), BATCH_EXPECTED)


def doctor(lines, i, old, new):
    out = list(lines)
    assert old in out[i]
    out[i] = out[i].replace(old, new)
    return out


class BatchChecks(unittest.TestCase):
    def test_accepts_a_good_transcript(self):
        c = batch(BATCH_GOOD)
        self.assertTrue(c.correct, c.problems)
        self.assertEqual((c.ok, c.failed, c.blocks_sum), (3, 0, 389))

    def rejects(self, lines):
        self.assertFalse(batch(lines).correct, lines)

    def test_rejects_makespan_below_lower_bound(self):
        self.rejects(doctor(BATCH_GOOD, 0, "makespan=16", "makespan=15"))

    def test_rejects_ratio_above_theorem_3_3(self):
        # m = 4 allows makespan / lb <= 2.5.
        self.rejects(doctor(BATCH_GOOD, 0, "makespan=16 lb=16 ratio=1.0000",
                            "makespan=41 lb=16 ratio=2.5625"))

    def test_accepts_ratio_at_theorem_3_3(self):
        self.assertTrue(batch(doctor(BATCH_GOOD, 0, "makespan=16 lb=16 ratio=1.0000",
                                     "makespan=40 lb=16 ratio=2.5000")).correct)

    def test_rejects_misprinted_ratio(self):
        self.rejects(doctor(BATCH_GOOD, 2, "ratio=1.5000", "ratio=1.4000"))

    def test_rejects_lines_out_of_order(self):
        self.rejects([BATCH_GOOD[1], BATCH_GOOD[0], BATCH_GOOD[2]])

    def test_rejects_missing_line(self):
        self.rejects(BATCH_GOOD[:2])

    def test_rejects_answer_for_another_record(self):
        self.rejects(doctor(BATCH_GOOD, 2, "n=20 m=8", "n=21 m=8"))
        self.rejects(doctor(BATCH_GOOD, 1, "inst/w00050.txt", "inst/w00051.txt"))

    def test_rejects_malformed_line(self):
        self.rejects(doctor(BATCH_GOOD, 2, " blocks=15", ""))

    def test_counts_error_lines_as_failed(self):
        lines = [BATCH_GOOD[0], "1 error invalid-instance line 2: too few processors",
                 BATCH_GOOD[2]]
        c = batch(lines)
        self.assertTrue(c.correct, c.problems)
        self.assertEqual((c.ok, c.failed), (2, 1))


class ServeChecks(unittest.TestCase):
    def test_accepts_a_good_transcript(self):
        c = checks.check_serve(SERVE_REQUESTS, SERVE_GOOD)
        self.assertTrue(c.correct, c.problems)
        self.assertEqual((c.ok, c.failed), (7, 0))

    def rejects(self, replies):
        self.assertFalse(checks.check_serve(SERVE_REQUESTS, replies).correct, replies)

    def test_rejects_makespan_below_lower_bound(self):
        self.rejects(doctor(SERVE_GOOD, 5, "makespan=3", "makespan=2"))

    def test_rejects_missing_reply(self):
        self.rejects(SERVE_GOOD[:-1])

    def test_rejects_replies_out_of_order(self):
        self.rejects(SERVE_GOOD[:2] + [SERVE_GOOD[3], SERVE_GOOD[2]] + SERVE_GOOD[4:])

    def test_rejects_wrong_job_number(self):
        self.rejects(doctor(SERVE_GOOD, 4, "job=1", "job=0"))

    def test_rejects_schedule_missing_a_job(self):
        self.rejects(doctor(SERVE_GOOD, 5, "jobs=2", "jobs=1"))

    def test_rejects_reply_for_another_tenant(self):
        self.rejects(doctor(SERVE_GOOD, 6, "tenant=t1", "tenant=t0"))

    def test_counts_overload_and_stale_as_failed(self):
        replies = doctor(SERVE_GOOD, 5, "ok schedule", "stale schedule")
        replies[3] = "3 overload jobs tenant=t1 cap=0"
        replies[6] = "6 error no-session tenant t1"
        c = checks.check_serve(SERVE_REQUESTS, replies)
        self.assertTrue(c.correct, c.problems)
        self.assertEqual(c.failed, 3)


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json names exactly what run.py and traced.py report."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_end_to_end_metrics(self):
        got = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual(got, run.END_TO_END)

    def test_per_layer_metrics(self):
        got = {m["name"]: (m["unit"], m["better"]) for m in self.bench["per_layer"]}
        want = {k: (v[0], v[1]) for k, v in traced.PER_LAYER.items()}
        self.assertEqual(got, want)

    def test_workloads(self):
        with open(os.path.join(ROOT, "perfbench", "workloads.json")) as f:
            records = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
        self.assertEqual({w["name"]: w["why"] for w in self.bench["workloads"]}, records)
        self.assertEqual(set(records), set(workloads.GENERATORS))


if __name__ == "__main__":
    unittest.main()
