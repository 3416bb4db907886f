#!/usr/bin/env python3
"""The benchmark's own tests: seeded inputs and the output oracle.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout (each case goes through run.py, which
builds the benchmark first).
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("travel_fo", "catalog_ucq", "cart_wal", "analysis")


def run(*args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=ROOT, capture_output=True)


def inputs(workload, seed):
    result = run("--workload", workload, "--seed", str(seed), "--dump-inputs")
    assert result.returncode == 0, result.stderr.decode()[-2000:]
    return result.stdout


class SeededInputsTest(unittest.TestCase):
    def test_one_seed_gives_identical_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = inputs(workload, 7)
                self.assertGreater(len(first), 1000)
                self.assertEqual(first, inputs(workload, 7))

    def test_another_seed_gives_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(inputs(workload, 7), inputs(workload, 8))


class OracleTest(unittest.TestCase):
    def result(self, *extra):
        out = {}
        for workload in WORKLOADS:
            proc = run("--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", "0", *extra)
            last = proc.stdout.decode().strip().splitlines()[-1]
            out[workload] = (proc.returncode, json.loads(last))
        return out

    def test_wrong_expected_output_fails_the_run(self):
        for workload, (code, result) in self.result("--break-oracle").items():
            with self.subTest(workload=workload):
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_default_seed_runs_clean(self):
        for workload, (code, result) in self.result().items():
            with self.subTest(workload=workload):
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
