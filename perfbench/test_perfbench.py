#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Every run uses the small --smoke inputs, so the suite takes well under a
minute once suit_perfbench is built (the first run builds it).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as perfbench  # noqa: E402


def run_bench(*args, cwd=ROOT, script=None):
    return subprocess.run(
        [sys.executable, script or os.path.join(HERE, "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" %
                             (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(workload, *extra, seed=3, trace=0):
    return result_of(run_bench("--workload", workload, "--seed", str(seed),
                               "--seconds", "0", "--trace", str(trace),
                               "--smoke", *extra))


class SmokeRuns(unittest.TestCase):
    def test_untraced_run_of_each_workload(self):
        for workload in perfbench.WORKLOADS:
            with self.subTest(workload=workload):
                res = smoke(workload)
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(set(res["metrics"]),
                                 set(perfbench.END_TO_END))
                for name, metric in res["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                    self.assertEqual(metric["unit"],
                                     perfbench.END_TO_END[name][0])

    # Per-layer metrics each workload must reach (> 0) and must leave
    # untouched (== 0): the "should not move" pairs of README.md.
    REACHES = {
        "fleet_1m": (["fleet.expand_ns_per_domain", "sim.domain.calls"],
                     ["exec.journal.appends", "uarch.program_gen.calls"]),
        "sweep_cold": (["sim.trace_cache.miss_s", "exec.pool.busy_s"],
                       ["fleet.expand_ns_per_domain", "exec.journal.appends",
                        "uarch.program_gen.calls"]),
        "sweep_journaled": (["exec.journal.appends",
                             "exec.journal.bytes_written"],
                            ["fleet.expand_ns_per_domain",
                             "uarch.program_gen.calls"]),
        "o3_imul": (["uarch.program_gen.calls", "uarch.o3.ipc"],
                    ["sim.domain.calls", "exec.journal.appends",
                     "fleet.expand_ns_per_domain"]),
    }

    def test_traced_run_of_each_workload(self):
        for workload in perfbench.WORKLOADS:
            with self.subTest(workload=workload):
                res = smoke(workload, trace=1)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertEqual(set(res["metrics"]),
                                 set(perfbench.PER_LAYER))
                reached, untouched = self.REACHES[workload]
                for name in reached:
                    self.assertGreater(res["metrics"][name]["value"], 0,
                                       name)
                for name in untouched:
                    self.assertEqual(res["metrics"][name]["value"], 0, name)
                trace_path = os.path.join(perfbench.BUILD, "traces",
                                          "%s-seed3.json" % workload)
                with open(trace_path) as f:
                    trace = json.load(f)
                names = {e["name"] for e in trace["traceEvents"]}
                self.assertIn("workload", names)


class Checks(unittest.TestCase):
    def test_any_seed_makes_a_valid_input(self):
        # FleetSpec seeds must be positive longs; run.py accepts any
        # non-negative seed.
        for seed in (0, 2**64 - 1):
            with self.subTest(seed=seed):
                self.assertTrue(smoke("fleet_1m", seed=seed)["correct"])

    def test_flipped_pinned_digest_fails_every_unit(self):
        for workload in perfbench.WORKLOADS:
            with self.subTest(workload=workload):
                res = smoke(workload, "--flip-digest",
                            seed=perfbench.DEFAULT_SEED)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], res["attempted"])

    def test_pinned_digest_matches_at_the_default_seed(self):
        res = smoke("o3_imul", seed=perfbench.DEFAULT_SEED)
        self.assertTrue(res["correct"])

    def test_diverging_replica_fails_the_traced_run(self):
        for workload in perfbench.WORKLOADS:
            with self.subTest(workload=workload):
                res = smoke(workload, "--perturb-replica", trace=1)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)

    def test_fails_without_the_repository_sources(self):
        lone = os.path.join(perfbench.BUILD_ROOT, "test-lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_bench("--workload", "o3_imul", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=lone,
                             script=os.path.join(lone, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


class Manifest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_py_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
        self.assertEqual([w["name"] for w in manifest["workloads"]],
                         list(perfbench.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"]
                          for m in manifest["end_to_end"]},
                         {n: u for n, (u, _) in perfbench.END_TO_END.items()})
        for m in manifest["end_to_end"]:
            self.assertEqual(m["better"], perfbench.END_TO_END[m["name"]][1])
        self.assertEqual({m["name"]: m["unit"]
                          for m in manifest["per_layer"]},
                         perfbench.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
