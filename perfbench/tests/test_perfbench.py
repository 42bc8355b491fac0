"""Tests of the repo benchmark: run with

    python3 -m unittest discover -s perfbench/tests -v

from the root of a checkout. The first test to run builds the
benchmark (about a minute on 4 cores).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.dirname(HERE)
ROOT = os.path.dirname(PKG)
sys.path.insert(0, PKG)

import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ("plan-step", "fleet", "serve")


def bench(workload, seed, trace, seconds=0):
    """Run run.py; return (result dict, summary lines)."""
    p = subprocess.run(
        [sys.executable, os.path.join(PKG, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise AssertionError("run.py failed:\n" + p.stderr[-3000:])
    lines = p.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


def modelled(lines):
    """The "modelled:" block of the summary: the workload's modelled
    figures and the digest, which no host speed or tracing may change."""
    start = lines.index("modelled:") + 1
    return lines[start:lines.index("metrics:")]


class ZeroLengthRuns(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = bench(workload, 1, trace)
                    self.assertEqual(run.validate(
                        result, run.expected_metrics(trace)), [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)

    def test_seed_repeats_and_tracing_change_no_output(self):
        _, first = bench("serve", 3, 0)
        _, again = bench("serve", 3, 0)
        _, traced = bench("serve", 3, 1)
        self.assertTrue(any("digest" in l for l in modelled(first)))
        self.assertEqual(modelled(first), modelled(again))
        self.assertEqual(modelled(first), modelled(traced))
        _, other = bench("serve", 4, 0)
        digest = [l for l in first if "digest" in l]
        self.assertNotEqual(digest, [l for l in other if "digest" in l])


class Validator(unittest.TestCase):
    def good(self):
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {n: {"value": 1.5, "unit": u} for n, u in
                            run.expected_metrics(0).items()}}

    def test_accepts_well_formed_result(self):
        self.assertEqual(run.validate(self.good(), run.expected_metrics(0)),
                         [])

    def test_rejects_forged_results(self):
        expected = run.expected_metrics(0)
        forged = []
        r = self.good()
        del r["metrics"]["setup_s"]
        forged.append(r)
        r = self.good()
        r["metrics"]["bogus"] = {"value": 1, "unit": "s"}
        forged.append(r)
        r = self.good()
        r["metrics"]["setup_s"]["unit"] = "ms"
        forged.append(r)
        r = self.good()
        r["metrics"]["setup_s"]["value"] = "fast"
        forged.append(r)
        r = self.good()
        r["attempted"] = 0
        forged.append(r)
        r = self.good()
        r["failed"] = 4
        forged.append(r)
        r = self.good()
        r["extra"] = 1
        forged.append(r)
        for r in forged:
            with self.subTest(result=r):
                self.assertNotEqual(run.validate(r, expected), [])


class CheckUnitTests(unittest.TestCase):
    def test_checks_reject_forged_outputs(self):
        if shutil.which("cmake") is None:
            self.skipTest("cmake not found")
        bdir = run.build(("perfbench",))
        binary = os.path.join(bdir, "perfbench_checks_test")
        try:
            run.build(("perfbench_checks_test",))
        except subprocess.CalledProcessError:
            self.skipTest("GTest not found; check unit tests not built")
        p = subprocess.run([binary], stdout=subprocess.PIPE, text=True)
        self.assertEqual(p.returncode, 0, p.stdout[-3000:])


class BareDirectory(unittest.TestCase):
    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(PKG, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
