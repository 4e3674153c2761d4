#!/usr/bin/env python3
"""Benchmark entry point: builds brb_perf from this checkout and runs one workload.

    python3 bench/perf/run.py --workload paper --seed 1 --seconds 25 --trace 0

The build lives in .bench_build/perf at the repository root. brb_perf's
human-readable report goes to stderr; the last line of stdout is one
JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

where `metrics` holds every end-to-end metric named in BENCHMARK.json
(--trace 0) or every per-layer metric (--trace 1), each as
{"value": ..., "unit": ...}. The exit status is 0 only when the build
succeeded and every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "perf")


def benchmark_spec():
    """The BENCHMARK.json document: workloads, metrics, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds brb_perf; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD, name)) for name in generated):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "brb_perf", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "brb_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    try:
        group = "per_layer" if args.trace else "end_to_end"
        names = [m["name"] for m in benchmark_spec()[group]]
        binary = build()
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        print(f"run.py: cannot set up the benchmark: {e}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-{args.seed}-{args.trace}"
    result_path = os.path.join(BUILD, f"result-{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--json={result_path}"]
    if args.trace:
        command.append(f"--trace={os.path.join(BUILD, f'trace-{tag}.json')}")
    status = subprocess.run(command, stdout=sys.stderr).returncode
    if not os.path.exists(result_path):
        print(f"run.py: brb_perf exited {status} without a result", file=sys.stderr)
        return 1

    with open(result_path) as f:
        doc = json.load(f)["workloads"][0]
    measured = doc[group]
    missing = [name for name in names if name not in measured]
    if missing:
        print(f"run.py: brb_perf did not report {missing}", file=sys.stderr)
        return 1
    correct = status == 0 and bool(doc["correct"])
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: measured[name] for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
