#!/usr/bin/env python3
"""Smoke test of the host-cost benchmark at tiny sizes (about a minute,
most of it the first build):

    python3 perfbench/tests/smoke_test.py

It builds hostbench and the metric-arithmetic test, runs that test, then runs
every workload with --tiny and checks that every metric BENCHMARK.json names
appears with its unit, that a clean run has no failures, that sim_s and every
per-layer count repeat for one seed, and that one deliberately corrupted
output element is reported as one failed operation rather than a crash.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)

# Units of host-measured per-layer metrics; every other one is an exact count
# or a simulated-time percentile.
HOST_UNITS = {"s", "ns", "%", "elem/s"}


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def tiny(workload, seed=3, trace=0, extra=()):
    return run.run_once(OUT, workload, seed, 0, trace, ["--tiny", *extra])


def counts(result):
    """Per-layer metrics that must repeat exactly: all but the host-measured."""
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] not in HOST_UNITS}


class SmokeTest(unittest.TestCase):
    def test_metric_arithmetic(self):
        proc = subprocess.run([os.path.join(OUT, "perfbench_stats_test")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_every_metric_with_its_unit(self):
        bench = spec()
        names = [w["name"] for w in bench["workloads"]]
        self.assertEqual(names, run.WORKLOADS)
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            want = {m["name"]: m["unit"] for m in bench[key]}
            for workload in names:
                with self.subTest(workload=workload, trace=trace):
                    result = tiny(workload, trace=trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_traced_run_writes_perfetto_json(self):
        tiny("hier10g_lossy_data", seed=5, trace=1)
        with open(os.path.join(OUT, "trace-hier10g_lossy_data-seed5.json")) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events if e.get("ph") == "X"}
        for span in ("hier10g_lossy_data", "setup", "warmup", "pass", "scenario.load",
                     "core.build", "quant.quantize", "core.reduce", "bench.verify",
                     "quant.dequantize"):
            self.assertIn(span, names)

    def test_sim_and_counts_repeat_for_one_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a, b = tiny(workload, seed=7), tiny(workload, seed=7)
                self.assertEqual(a["metrics"]["sim_s"]["value"], b["metrics"]["sim_s"]["value"])
                self.assertEqual(counts(tiny(workload, seed=7, trace=1)),
                                 counts(tiny(workload, seed=7, trace=1)))

    def test_seed_changes_the_inputs(self):
        a, b = tiny("rack100g_timing", seed=1), tiny("rack100g_timing", seed=2)
        self.assertNotEqual(a["metrics"]["sim_s"]["value"], b["metrics"]["sim_s"]["value"])

    def test_corrupted_output_is_a_failed_operation(self):
        # Operation 0 is the first warm-up reduction; corrupt the second one.
        result = tiny("hier10g_lossy_data", extra=["--corrupt-operation", "1"])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], 1)


if __name__ == "__main__":
    OUT = run.build(("hostbench", "perfbench_stats_test"))
    unittest.main()
