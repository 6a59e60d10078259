#!/usr/bin/env python3
"""Build and run the end-to-end host-cost benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload cwf_reads --seed 12345 \
        --seconds 20 --trace 0

Builds e2e_bench (Release) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs it with every argument passed through.  All
HETSIM_* variables are dropped so every simulator knob stays at its
default.  The benchmark's last stdout line is one JSON result object;
this script checks that it is there and exits non-zero otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def clean_env(out):
    env = {k: v for k, v in os.environ.items() if not k.startswith("HETSIM_")}
    # Keep compiler scratch files inside the build tree.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build(out, env):
    """Configure once, then bring the binary up to date; build logs go to
    stderr so stdout carries only the benchmark's own lines."""
    steps = []
    if not os.path.exists(os.path.join(out, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "e2e_bench",
                  "--parallel", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            return False
    return True


def main():
    out = build_dir()
    env = clean_env(out)
    if not build(out, env):
        print("e2e_bench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(out, "e2e_bench")
    proc = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                          text=True, env=env)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("e2e_bench: no result line", file=sys.stderr)
        return 3
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("e2e_bench: malformed result line", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
