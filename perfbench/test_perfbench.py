#!/usr/bin/env python3
"""Tests of the benchmark's own correctness check and result format.

Run from anywhere (takes about two minutes; builds the benchmark first):

    python3 perfbench/test_perfbench.py

They prove the check is load-bearing: a perturbed expected output fails
the run, region_sharded at another seed fails against the seed-1 golden,
and region_sharded gives identical simulated outputs at 1 shard (its
default) and on a 2-thread pool.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
os.chdir(ROOT)

import run  # noqa: E402  (needs the repository root as cwd)

BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()
    if BINARY is None:
        raise RuntimeError("benchmark build failed")


def run_binary(*args):
    """Runs the benchmark binary; returns (exit code, parsed last line)."""
    proc = subprocess.run([BINARY, "--out-dir", run.OUT_DIR] + list(args),
                          stdout=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().split("\n")[-1])


def run_script(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")]
                          + list(args), cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class ResultFormat(unittest.TestCase):
    def check_line(self, stdout, metrics):
        result = json.loads(stdout.strip().split("\n")[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in metrics})
        return result

    def test_untraced_run_reports_every_end_to_end_metric(self):
        code, out = run_script("--workload", "canal_steady", "--seed", "7",
                               "--seconds", "2", "--trace", "0")
        self.assertEqual(code, 0, out)
        result = self.check_line(out, benchmark_spec()["end_to_end"])
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)
        with open(os.path.join(run.OUT_DIR,
                               "result-canal_steady-seed7-trace0.json")) as f:
            manifest = json.load(f)["manifest"]
        for key in ("cpu_model", "nproc", "loadavg_1m_at_start", "seed",
                    "compiler", "flags", "source_sha256"):
            self.assertIn(key, manifest)

    def test_traced_run_reports_every_per_layer_metric(self):
        code, out = run_script("--workload", "plane_churn", "--seed", "7",
                               "--seconds", "2", "--trace", "1")
        self.assertEqual(code, 0, out)
        result = self.check_line(out, benchmark_spec()["per_layer"])
        metrics = result["metrics"]
        # Layers only plane_churn reaches.
        for name in ("telemetry.record_ns", "k8s.push_epoch_us",
                     "mesh.install_ms.istio", "mesh.drain_cpu_share.ambient",
                     "http.parse_ns", "lb.redirect_ns"):
            self.assertGreater(metrics[name]["value"], 0, name)
        self.assertTrue(os.path.isfile(os.path.join(
            run.OUT_DIR, "trace-plane_churn-seed7.json")))


class CorrectnessCheck(unittest.TestCase):
    def test_perturbed_expected_output_fails(self):
        code, result = run_binary("--workload", "canal_steady", "--seed", "5",
                                  "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        p99 = result["checked"]["sim.p99_us"]
        code, same = run_binary("--workload", "canal_steady", "--seed", "5",
                                "--seconds", "1", "--trace", "0",
                                "--expect", "sim.p99_us=%r" % p99)
        self.assertEqual(code, 0, same["errors"])
        code, bad = run_binary("--workload", "canal_steady", "--seed", "5",
                               "--seconds", "1", "--trace", "0",
                               "--expect", "sim.p99_us=%r" % (p99 * 1.001))
        self.assertEqual(code, 1)
        self.assertFalse(bad["correct"])
        self.assertEqual(bad["failed"], bad["attempted"])

    def test_region_at_another_seed_fails_the_seed1_golden(self):
        code, result = run_binary("--workload", "region_sharded", "--seed", "2",
                                  "--seconds", "1", "--trace", "0",
                                  *run.region_expectations())
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_region_matches_golden_at_one_and_two_shards(self):
        outputs = []
        for shards in ("1", "2"):
            code, result = run_binary("--workload", "region_sharded",
                                      "--seed", "1", "--seconds", "1",
                                      "--trace", "0", "--shards", shards,
                                      *run.region_expectations())
            self.assertEqual(code, 0, result["errors"])
            outputs.append(result["checked"])
        self.assertEqual(outputs[0], outputs[1])

    def test_directory_without_the_simulator_fails(self):
        bare = os.path.join(ROOT, run.OUT_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run_script("--workload", "canal_steady", "--seed", "1",
                               "--seconds", "1", "--trace", "0", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertEqual(out.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
