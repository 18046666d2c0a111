#!/usr/bin/env python3
"""DIP router benchmark: build from source, run one workload, print JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload ip4_zipf_churn --seed 1 \
        --seconds 10 --trace 0

Workloads and metrics are described in BENCHMARK.json. The first run in a
checkout configures and builds perfbench/ (the repository's src/ libraries
plus the dipbench program) as a Release tree under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only rebuild what changed.
Build output goes to stderr. The stdout of dipbench is passed through: a host
and build fingerprint line, a summary line (fail_ratio and the ungated
latency_p90_us and latency_p99_us, plus publish_p90_ms on ip4_zipf_churn), and last the
result object {"correct", "attempted", "failed", "metrics"}. The exit
status is non-zero when the build fails, when any output is wrong, or when
dipbench does not finish in time.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(out, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", "dipbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "dipbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build(build_dir())
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("perfbench: dipbench printed nothing", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: last line is not JSON", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result object", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    if proc.returncode != 0 or not result["correct"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
