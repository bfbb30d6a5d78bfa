#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources and runs it.

One workload, or all four in turn:
    python3 bench_e2e/run.py --workload gpt_train_1r --seed 1 --seconds 20 --trace 0
    python3 bench_e2e/run.py --workload all --seed 1 --trace 0

Smoke test (every workload at toy size, both trace modes, in seconds):
    python3 bench_e2e/run.py --smoke

The build lives in .bench_build/ at the checkout root and its output goes to
stderr, so the last line of stdout is the benchmark's JSON result. AXONN_*
environment variables are removed before the benchmark starts: it measures
library defaults.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
WORKLOADS = ["gpt_train_1r", "gpt_train_z2d2", "gpt_decode", "fc4d_x2z2"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # The Makefile is written last, so an interrupted configure reruns.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD], stdout=sys.stderr,
                       check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j",
                    jobs], stdout=sys.stderr, check=True)


def bench_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("AXONN_")}


def run_one(args, workload):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, env=bench_env(), timeout=RUN_TIMEOUT_S).returncode


def expect(ok, what):
    if not ok:
        raise SystemExit(f"smoke: {what}")


def smoke():
    """Runs every workload at toy size and checks each named metric and unit
    of BENCHMARK.json is reported and every correctness check passes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(WORKLOADS), f"workloads {names}")
    for workload in names:
        for trace in (0, 1):
            cmd = [BINARY, "--workload", workload, "--seed", "7",
                   "--seconds", "0.2", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, env=bench_env(), capture_output=True,
                                  text=True, timeout=RUN_TIMEOUT_S)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                sys.stdout.write(proc.stdout)
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"smoke: {label} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{label}: checks failed")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == expected[trace], f"{label}: metrics {got}")
            for name, value in result["metrics"].items():
                expect(isinstance(value["value"], (int, float)),
                       f"{label}: {name} is not a number")
            print(f"smoke ok: {label} ({result['attempted']} attempted)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"bench_e2e: build failed: {e}", file=sys.stderr)
        return 1
    if args.smoke:
        smoke()
        return 0
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        return max(run_one(args, w) for w in workloads)
    except subprocess.TimeoutExpired:
        print("bench_e2e: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
