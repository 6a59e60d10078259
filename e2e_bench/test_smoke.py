#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at a tiny quantum.

    python3 e2e_bench/test_smoke.py [path/to/e2e_bench]

Without a path the benchmark is built and run through run.py.  The test
checks that every metric README.md names is printed exactly once per
workload with a valid name and unit, that the result line matches
BENCHMARK.json, that no run fails (the traced stack matches System bit
for bit), that the seed drives the simulated digest, and that bad names
are rejected before any run starts.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND = [sys.executable, os.path.join(HERE, "run.py")]

WORKLOADS = ["cwf_reads", "writeback_stream", "low_intensity"]
END_TO_END = ["cpu_s", "sim_minst_per_cpu_s", "setup_s", "peak_rss_mb"]
COUNTS = ["capped_runs", "failed_runs"]
PER_LAYER = [
    "workloads.ops", "workloads.ns_per_op", "workloads.self_s",
    "cpu.core_ticks", "cpu.ns_per_core_tick", "cpu.self_s", "cpu.retired",
    "cpu.dispatch_stalls",
    "cache.accesses", "cache.self_s", "cache.demand_misses",
    "cache.mshr_joins", "cache.mshr_full_stalls", "cache.blocked_accesses",
    "cache.prefetch_issued",
    "core.fill_requests", "core.writeback_requests", "core.ns_per_tick",
    "core.self_s", "core.bus_utilization", "core.row_hit_rate",
    "core.queue_ticks", "core.served_by_fast", "core.early_wake_fraction",
    "sim.ticks", "sim.self_s", "sim.engine_cpu_ratio",
    "trace.overhead_ratio",
] + COUNTS
RUNS = {"cwf_reads": 20, "writeback_stream": 15, "low_intensity": 4}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args):
    return subprocess.run(COMMAND + list(args), capture_output=True,
                          text=True, timeout=600)


def metric_lines(stdout):
    """{workload: [(name, value, unit), ...]} from `metric` lines."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, workload, name, value, unit = line.split()[:5]
            out.setdefault(workload, []).append((name, float(value), unit))
    return out


def benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.traced = run("--workload", "all", "--smoke", "--trace", "1",
                         "--seed", "7")

    def test_traced_pass_succeeds(self):
        self.assertEqual(self.traced.returncode, 0, self.traced.stderr)
        result = json.loads(self.traced.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], sum(RUNS.values()))
        self.assertNotIn("\nfail ", "\n" + self.traced.stdout)

    def test_every_metric_printed_once_with_unit(self):
        lines = metric_lines(self.traced.stdout)
        self.assertEqual(sorted(lines), sorted(WORKLOADS))
        for workload, metrics in lines.items():
            names = [m[0] for m in metrics]
            self.assertEqual(sorted(names), sorted(END_TO_END + PER_LAYER),
                             workload)
            for name, value, unit in metrics:
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)
                self.assertGreaterEqual(value, 0, name)

    def test_result_line_matches_benchmark_json(self):
        spec = benchmark_json()
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], PER_LAYER)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result = json.loads(self.traced.stdout.strip().splitlines()[-1])
        expected = {f"{w}.{m}" for w in WORKLOADS for m in PER_LAYER}
        self.assertEqual(set(result["metrics"]), expected)
        for key, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[key.split(".", 1)[1]])

    def test_untraced_result_has_end_to_end_metrics(self):
        p = run("--workload", "cwf_reads", "--programs", "mcf", "--smoke",
                "--trace", "0", "--seconds", "1")
        self.assertEqual(p.returncode, 0, p.stderr)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        units = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name])
            self.assertGreater(metric["value"], 0, name)

    def test_seed_drives_the_digest(self):
        def digests(stdout):
            return [l for l in stdout.splitlines()
                    if l.startswith("sim_digest ")]

        again = run("--workload", "all", "--smoke", "--trace", "0",
                    "--seconds", "1", "--seed", "7")
        other = run("--workload", "all", "--smoke", "--trace", "0",
                    "--seconds", "1", "--seed", "8")
        self.assertEqual(len(digests(self.traced.stdout)), len(WORKLOADS))
        self.assertEqual(digests(again.stdout),
                         digests(self.traced.stdout))
        self.assertNotEqual(digests(other.stdout), digests(again.stdout))

    def test_bad_names_fail_before_any_run(self):
        for args, valid in [
            (["--workload", "nope"], "cwf_reads"),
            (["--workload", "cwf_reads", "--programs", "nope"], "mcf"),
            (["--workload", "cwf_reads", "--configs", "nope"], "RL"),
            (["--workload", "cwf_reads", "--seed", "x"], "--seed"),
            (["--workload", "cwf_reads", "--trace", "2"], "--trace"),
        ]:
            p = run(*args)
            self.assertNotEqual(p.returncode, 0, args)
            self.assertEqual(p.stdout, "", args)
            self.assertIn(valid, p.stderr, args)


if __name__ == "__main__":
    if len(sys.argv) > 1 and not sys.argv[1].startswith("-"):
        COMMAND = [sys.argv.pop(1)]
    unittest.main()
