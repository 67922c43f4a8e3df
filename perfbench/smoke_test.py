#!/usr/bin/env python3
"""Smoke test of the reconciliation benchmark.

Runs every workload of BENCHMARK.json in smoke mode (a handful of syncs),
untraced and traced, and checks that each run

  - ends its standard output with the result object and its exact keys,
  - reports correct = true with at least one attempted sync,
  - emits every metric BENCHMARK.json declares for the mode, with its unit,
  - ran the workload's correctness gates, and all of them passed.

Usage, from the repository root (builds first if needed):

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Gates each workload must run; traced runs add their identity gates.
GATES = {
    "emd_oneshot": ["failure_rate", "repeat_identical", "emd_ratio"],
    "serve_churn": ["failure_rate", "mutations_ok",
                    "warm_equals_cold_protocol",
                    "maintained_equals_cold_build",
                    "replay_matches_session"],
    "gap_hamming": ["failure_rate", "repeat_identical",
                    "gap_violation_rate"],
}
TRACE_GATES = {
    "emd_oneshot": ["trace_identity", "trace_message_bytes"],
    "serve_churn": ["trace_identity", "trace_shadow_tables"],
    "gap_hamming": ["trace_identity"],
}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        bench = load_benchmark()
        proc = run_smoke(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

        declared = bench["per_layer"] if trace else bench["end_to_end"]
        expected = {m["name"]: m["unit"] for m in declared}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(emitted, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        # The human-readable lines name every end-to-end metric too.
        if not trace:
            printed = {line.split()[1] for line in lines
                       if line.startswith("metric ")}
            self.assertEqual(printed, set(expected))

        gate_lines = [line for line in lines if line.startswith("gates ")]
        self.assertEqual(len(gate_lines), 1)
        gates = json.loads(gate_lines[0][len("gates "):])
        wanted = GATES[workload] + (TRACE_GATES[workload] if trace else [])
        self.assertEqual(sorted(gates), sorted(wanted))
        self.assertTrue(all(gates.values()), gates)

    def test_workloads_declared(self):
        names = [w["name"] for w in load_benchmark()["workloads"]]
        self.assertEqual(sorted(names), sorted(GATES))

    def test_emd_oneshot(self):
        self.check("emd_oneshot", 0)

    def test_emd_oneshot_traced(self):
        self.check("emd_oneshot", 1)

    def test_serve_churn(self):
        self.check("serve_churn", 0)

    def test_serve_churn_traced(self):
        self.check("serve_churn", 1)

    def test_gap_hamming(self):
        self.check("gap_hamming", 0)

    def test_gap_hamming_traced(self):
        self.check("gap_hamming", 1)


if __name__ == "__main__":
    unittest.main()
