#!/usr/bin/env python3
"""Interleaved A/B of two e2e_bench binaries: a base build and a head build.

    python3 scripts/e2e_ab.py [--full] [--pairs N] [--workload NAME]
                              BASE_BIN HEAD_BIN

Runs N interleaved pairs (default 5) of BASE and HEAD, alternating
which side runs first, each as
`e2e_bench --workload all --smoke --trace 0 --seconds 1 --seed 12345`;
`--full` drops `--smoke`, so every run has the default quantum, and
`--workload` passes a workload name or comma list in place of `all`.
Prints, per workload, the median over pairs of the HEAD/base ratio of
each end-to-end metric, the cpu_s ratio of every pair (so the spread
shows), in how many pairs HEAD's cpu_s was lower, and whether its
sim_digest was equal in every pair.
Fails when a run fails, when any workload's sim_digest differs between
the two builds, or when the median HEAD/base `cpu_s` ratio exceeds 1.25
(BENCHMARK.json's cpu_s bound) for any workload.  A ratio taken within
one job is the only number that is stable across hosts.
"""

import argparse
import json
import statistics
import subprocess
import sys

ARGS = ["--trace", "0", "--seconds", "1", "--seed", "12345"]
BOUND = 1.25
# BENCHMARK.json's end-to-end metrics, with the direction that is better.
METRICS = [("cpu_s", "lower"), ("sim_minst_per_cpu_s", "higher"),
           ("setup_s", "lower"), ("peak_rss_mb", "lower")]


def run(binary, workload, smoke):
    """(digests, metrics) of one invocation: {workload: hex} and
    {workload: {metric: value}}."""
    args = ["--workload", workload] + ARGS + (["--smoke"] if smoke else [])
    proc = subprocess.run([binary] + args, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{binary} failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{binary} reported failed runs:\n{proc.stdout}")
    digests = {}
    for line in lines:
        if line.startswith("sim_digest "):
            _, workload, digest = line.split()[:3]
            digests[workload] = digest
    metrics = {}
    for key, metric in result["metrics"].items():
        # One workload's metrics come unprefixed: "cpu_s", not
        # "cwf_reads.cpu_s".
        prefix, _, name = key.rpartition(".")
        metrics.setdefault(prefix or workload, {})[name] = metric["value"]
    return digests, metrics


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base", help="e2e_bench built from the base tree")
    parser.add_argument("head", help="e2e_bench built from the head tree")
    parser.add_argument("--full", action="store_true",
                        help="run the default quantum instead of --smoke")
    parser.add_argument("--pairs", type=int, default=5,
                        help="interleaved BASE/HEAD pairs (default 5)")
    parser.add_argument("--workload", default="all",
                        help="e2e_bench workload name or comma list "
                             "(default all)")
    opt = parser.parse_args()
    if opt.pairs < 1:
        parser.error("--pairs must be at least 1")

    ratios = {}       # {workload: {metric: [HEAD/base per pair]}}
    digest_equal = {}  # {workload: pairs with equal sim_digest}
    for pair in range(opt.pairs):
        if pair % 2:
            head_digests, head_metrics = run(opt.head, opt.workload,
                                             not opt.full)
            base_digests, base_metrics = run(opt.base, opt.workload,
                                             not opt.full)
        else:
            base_digests, base_metrics = run(opt.base, opt.workload,
                                             not opt.full)
            head_digests, head_metrics = run(opt.head, opt.workload,
                                             not opt.full)
        if not base_digests or set(base_digests) != set(head_digests):
            sys.exit(f"sim_digest workloads differ: base {base_digests} "
                     f"head {head_digests}")
        for workload, digest in base_digests.items():
            digest_equal[workload] = digest_equal.get(workload, 0) + (
                digest == head_digests[workload])
        for workload, values in base_metrics.items():
            per_metric = ratios.setdefault(workload, {})
            for name, _ in METRICS:
                per_metric.setdefault(name, []).append(
                    head_metrics[workload][name] / values[name])

    failed = False
    mode = "full" if opt.full else "smoke"
    print(f"median HEAD/base ratio over {opt.pairs} {mode} pairs")
    for workload, per_metric in sorted(ratios.items()):
        cells = [f"{name} {statistics.median(per_metric[name]):.3f} "
                 f"({better} is better)" for name, better in METRICS]
        cpu = statistics.median(per_metric["cpu_s"])
        wins = sum(r < 1 for r in per_metric["cpu_s"])
        ok = cpu <= BOUND
        failed |= not ok
        pairs = " ".join(f"{r:.3f}" for r in per_metric["cpu_s"])
        print(f"{workload}: {', '.join(cells)}; cpu_s per pair [{pairs}]; "
              f"HEAD cpu_s lower in {wins} of {opt.pairs} pairs; cpu_s "
              f"bound {BOUND} {'ok' if ok else 'FAIL'}")
    for workload, equal in sorted(digest_equal.items()):
        same = equal == opt.pairs
        failed |= not same
        print(f"{workload}: sim_digest {'equal' if same else 'DIFFERS'} "
              f"in {equal} of {opt.pairs} pairs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
