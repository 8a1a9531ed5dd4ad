#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 perfbench/test_perfbench.py

For each workload it asserts that
  * every metric BENCHMARK.json names is printed, with the unit it declares;
  * the correctness gates pass (exit 0, correct, nothing failed);
  * the deterministic facts repeat: two timed runs and a traced run with the
    same seed report identical facts, deadline_hit_pct and counts.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "7"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Per-layer counts that are simulation facts (no host time in them).
DETERMINISTIC_LAYERS = ("sim.events", "net.messages", "workload.txns",
                        "lock.wfg_checks", "txn.edf_ops", "core.shipped",
                        "fault.dropped", "obs.events_recorded")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", SEED, "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    facts = next(l for l in lines if l.startswith("facts:"))
    return proc, json.loads(lines[-1]), facts


class ContractTest(unittest.TestCase):
    def test_names_and_limits(self):
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        seen = set()
        for group in ("workloads", "end_to_end", "per_layer"):
            for entry in SPEC[group]:
                self.assertRegex(entry["name"], name)
                self.assertNotIn(entry["name"], seen)
                seen.add(entry["name"])
                if "unit" in entry:
                    self.assertRegex(entry["unit"], unit)
                    self.assertIn(entry["better"], ("higher", "lower"))
                if "why" in entry:
                    self.assertLessEqual(len(entry["why"]), 200)
        for entry in SPEC["end_to_end"]:
            self.assertLessEqual(entry["bound"], 0.25)
        self.assertIn("setup_s", seen)


class WorkloadTest(unittest.TestCase):
    def check(self, workload):
        results = {}
        for label, trace in (("a", 0), ("b", 0), ("traced", 1)):
            proc, result, facts = run(workload, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            group = "per_layer" if trace else "end_to_end"
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, expected)
            results[label] = (result["metrics"], facts)

        (a, facts_a), (b, facts_b) = results["a"], results["b"]
        traced, facts_traced = results["traced"]
        self.assertEqual(facts_a, facts_b)
        self.assertEqual(facts_a, facts_traced)
        self.assertEqual(a["deadline_hit_pct"], b["deadline_hit_pct"])
        self.assertGreater(a["deadline_hit_pct"]["value"], 0)
        for name in DETERMINISTIC_LAYERS:
            self.assertIn(name, traced)
        return traced

    def test_ls_paper(self):
        traced = self.check("ls_paper")
        self.assertEqual(traced["fault.dropped"]["value"], 0)
        self.assertEqual(traced["obs.span_ops"]["value"], 0)

    def test_cs_scale(self):
        traced = self.check("cs_scale")
        self.assertEqual(traced["core.shipped"]["value"], 0)
        self.assertEqual(traced["obs.span_ops"]["value"], 0)

    def test_chaos_mix(self):
        traced = self.check("chaos_mix")
        self.assertGreater(traced["fault.dropped"]["value"], 0)
        self.assertGreater(traced["obs.events_recorded"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
