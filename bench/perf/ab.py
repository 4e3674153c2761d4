#!/usr/bin/env python3
"""A/B comparison of two brb_perf binaries: the parent commit's and the change's.

    python3 bench/perf/ab.py BASE_BIN HEAD_BIN [--seed S]

For every workload in BENCHMARK.json it runs 10 pairs of the two
binaries at the same seed S and BENCHMARK.json's run_seconds, alternating
which one goes first, so the two sides differ only by binary and host
noise. For every end-to-end metric it reports each side's median and
quartiles, the pairs the change won (ties count for neither) and a
verdict, one row per workload:

  win          the change won at least 9 of the 10 pairs and the medians
               differ by more than the base's interquartile range
  regression   the change's median is worse than the base's by more than
               the metric's bound
  unresolved   the base's own spread (IQR / median) is wider than the
               bound, and not every change run beats every base run
  within-bound otherwise

Simulated outputs are deterministic, so sim_digest is compared exactly:
a change that claims only speed must leave it identical. A claim must
also hold on a seed not used while the change was written: run ab.py
again with that --seed. Exits 1 when any metric regressed, a digest
changed or a check failed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

import run

PAIRS = 10


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_once(binary, workload, seed, seconds, out_path):
    command = [binary, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
               f"--json={out_path}"]
    proc = subprocess.run(command, capture_output=True, text=True)
    if not os.path.exists(out_path):
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode} without a result:\n"
                           f"{proc.stderr}")
    with open(out_path) as f:
        doc = json.load(f)["workloads"][0]
    os.remove(out_path)
    return doc


def verdict(metric, base, head):
    lower = metric["better"] == "lower"
    gain = [(b - h) if lower else (h - b) for b, h in zip(base, head)]
    wins = sum(1 for g in gain if g > 0)
    base_med, head_med = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    improvement = (base_med - head_med) if lower else (head_med - base_med)
    every_better = (max(head) < min(base)) if lower else (min(head) > max(base))
    if wins >= math.ceil(0.9 * len(base)) and improvement > (q3 - q1):
        label = "win"
    elif -improvement > metric["bound"] * base_med:
        label = "regression"
    elif base_med > 0 and (q3 - q1) / base_med > metric["bound"] and not every_better:
        label = "unresolved"
    else:
        label = "within-bound"
    return label, wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = run.benchmark_spec()
    workdir = os.path.join(run.BUILD, "ab")
    os.makedirs(workdir, exist_ok=True)

    rows = []
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        base_docs, head_docs = [], []
        for i in range(PAIRS):
            order = [("base", args.base), ("head", args.head)]
            if i % 2 == 1:
                order.reverse()
            for side, binary in order:
                doc = run_once(binary, workload, args.seed, spec["run_seconds"],
                               os.path.join(workdir, f"{side}-{workload}.json"))
                (base_docs if side == "base" else head_docs).append(doc)
            print(f"[ab] {workload} pair {i + 1}/{PAIRS} done", file=sys.stderr)
        digest_changed = any(b["sim_digest"] != h["sim_digest"]
                             for b, h in zip(base_docs, head_docs))
        incorrect = sum(1 for d in base_docs + head_docs if not d["correct"])
        verdicts = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [d["end_to_end"][name]["value"] for d in base_docs]
            head = [d["end_to_end"][name]["value"] for d in head_docs]
            label, wins = verdict(metric, base, head)
            verdicts[name] = label
            failed = failed or label == "regression"
            bq, hq = quartiles(base), quartiles(head)
            print(f"{workload:13s} {name:12s} base {statistics.median(base):.6g} "
                  f"[{bq[0]:.6g}, {bq[1]:.6g}]  head {statistics.median(head):.6g} "
                  f"[{hq[0]:.6g}, {hq[1]:.6g}]  wins {wins}/{PAIRS}  {label}")
        if digest_changed:
            print(f"{workload:13s} sim_digest changed")
            failed = True
        if incorrect:
            print(f"{workload:13s} checks failed in {incorrect} of {2 * PAIRS} runs")
            failed = True
        rows.append((workload, verdicts, "changed" if digest_changed else "identical"))

    names = [m["name"] for m in spec["end_to_end"]]
    print("\n" + " | ".join(["workload"] + names + ["sim_digest"]))
    for workload, verdicts, digest in rows:
        print(" | ".join([workload] + [verdicts[n] for n in names] + [digest]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
