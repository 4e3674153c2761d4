#!/usr/bin/env python3
"""CI gate for brbsim JSON artifacts. Six modes:

Reference diff (default):
    check_claims.py fresh.json reference.json [--tolerance 0.10]

  Diffs a fresh paper-scenario report against the checked-in nightly
  reference. Headline claims guarded (the reproduction's versions of
  the paper's Figure 2 story):

    Claim A  BRB (equalmax-credits) beats C3 on task p99 by a clear
             factor (reference ~1.9x at the nightly config).
    Claim B  the credits realization tracks the ideal global-queue
             model within a bounded p99 gap (reference ~22%).

  Per-case percentile means are also diffed. The simulation is
  bit-deterministic for a fixed seed/binary, so drift here means a
  behavior change (intended or not) — the tolerance only absorbs
  toolchain-level floating-point variation, which should be zero on
  the pinned CI image.

Invariant check (scenario-diversity nightly matrix):
    check_claims.py --invariants report.json [--max-tenant-p99-ratio R]

  Scenario-independent health checks on every run of every case:
  all submitted tasks completed, nothing left held at a dispatch gate,
  write replica copies all acknowledged, and (for multi-tenant cases)
  the per-tenant p99 spread within a bound.

Policy sanity (policy-shootout nightly):
    check_claims.py --policy-sanity shootout.json [--margin 1.0]

  Asserts the control plane's literature baselines are ordered sanely
  at the swept (high-load) config: C3's replica ranking (the
  "c3-noderate" case — the ranking without its rate gate, which needs
  a longer horizon than nightly runs to amortize) must beat uniform
  random selection on task p99:  p99(c3-noderate) < margin * p99(random).

Hedge sanity (hedging-shootout nightly):
    check_claims.py --hedge-sanity shootout.json [--max-dwf 0.1]

  Asserts tail-cutting pays for itself on every workload of the
  hedging-shootout sweep: for each workload prefix (diurnal,
  multi-tenant), the hedged case must beat the single-target reference
  on task p99 while keeping the duplicate-work fraction (wasted full
  services / all full services) under the bound — hedging that burns
  more than that is load amplification, not tail-cutting.

Scale sanity (mega-fleet nightly):
    check_claims.py --scale-sanity mega.json \
        [--max-wall-seconds W] [--max-rss-mb M] [--sketch-tolerance T]

  Gates the million-client scale case: the sweep must complete every
  task of every run under the wall-clock budget with the worst single
  process's peak RSS under the memory budget (merged artifacts carry
  the max across shard workers), the sparse signal store must actually
  have engaged (a dense fallback would "pass" by luck on a small CI
  shape), and the mergeable quantile sketch must agree with the exact
  per-run percentiles (p50/p95/p99) within a relative-error bound.
  The sketch's documented accuracy is alpha = 1% relative on values;
  the default bound (5%) adds slack for the exact path's histogram
  quantization. Pooled case-level sketch counts must equal the sum of
  their per-run sketches (merge lost or double-counted nothing).

Determinism check:
    check_claims.py --identical a.json b.json

  Asserts two reports are identical except wall-clock time — the
  --threads invariance and shard-merge gates (fixed seed + any worker
  count, thread or process, must give byte-identical artifacts).
  Format-2 artifacts quarantine wall-clock time in one top-level
  "timing" object, so this drops exactly that subtree (plus legacy
  per-run "wall_seconds" fields from format-1 reports).
"""

import argparse
import json
import sys


def case_p99(doc, label):
    for case in doc["cases"]:
        if case["label"] == label:
            return case["task_latency_ms"]["p99_ms"]["mean"]
    raise SystemExit(f"case '{label}' missing from report")


def claim_metrics(doc):
    c3 = case_p99(doc, "c3")
    credits = case_p99(doc, "equalmax-credits")
    model = case_p99(doc, "equalmax-model")
    return {
        "claim_a_c3_over_credits_p99": c3 / credits,
        "claim_b_credits_over_model_p99": credits / model,
    }


def run_reference_diff(fresh_path, reference_path, tolerance):
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(reference_path) as f:
        reference = json.load(f)

    failures = []

    def check(name, got, want):
        drift = abs(got - want) / abs(want) if want else abs(got)
        status = "ok" if drift <= tolerance else "FAIL"
        print(f"{status:4} {name}: got {got:.4f}, reference {want:.4f}, drift {drift:.2%}")
        if drift > tolerance:
            failures.append(name)

    fresh_claims = claim_metrics(fresh)
    ref_claims = claim_metrics(reference)
    for name in fresh_claims:
        check(name, fresh_claims[name], ref_claims[name])

    ref_cases = {case["label"]: case for case in reference["cases"]}
    for case in fresh["cases"]:
        ref = ref_cases.get(case["label"])
        if ref is None:
            print(f"note: case '{case['label']}' not in reference, skipping")
            continue
        for metric in ("p50_ms", "p95_ms", "p99_ms", "mean_ms"):
            check(f"{case['label']}/{metric}",
                  case["task_latency_ms"][metric]["mean"],
                  ref["task_latency_ms"][metric]["mean"])

    if failures:
        print(f"\n{len(failures)} metric(s) drifted past tolerance "
              f"{tolerance:.0%}: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("\nall claim metrics within tolerance")
    return 0


def run_invariants(report_path, max_tenant_p99_ratio):
    with open(report_path) as f:
        doc = json.load(f)

    failures = []
    checked = 0

    def check(name, ok, detail):
        nonlocal checked
        checked += 1
        print(f"{'ok' if ok else 'FAIL':4} {name}: {detail}")
        if not ok:
            failures.append(name)

    for case in doc.get("cases", []):
        label = case["label"]
        # Expanders may override the task count per case; the case
        # block carries its own copy, the base config is the fallback.
        expected_tasks = case.get("tasks", doc["config"]["tasks"])
        if not case.get("runs"):
            check(f"{label}/runs", False, "case has no runs")
            continue
        for run in case["runs"]:
            tag = f"{label}/seed={run['seed']}"
            check(f"{tag}/tasks_completed",
                  run["tasks_completed"] == expected_tasks,
                  f"{run['tasks_completed']} of {expected_tasks}")
            check(f"{tag}/gate_held_requests",
                  run["gate_held_requests"] == 0,
                  f"{run['gate_held_requests']} held at teardown")
            if case.get("write_fraction", 0) > 0:
                check(f"{tag}/write_requests",
                      run.get("write_requests", 0) > 0,
                      f"{run.get('write_requests', 0)} write copies acked")
            tenants = run.get("tenants")
            if tenants:
                total = sum(t["tasks_completed"] for t in tenants)
                check(f"{tag}/tenant_task_sum",
                      total == run["tasks_completed"],
                      f"tenant tasks sum {total} vs {run['tasks_completed']}")
                ratio = run.get("tenant_p99_ratio", 0.0)
                check(f"{tag}/tenant_p99_ratio",
                      0.0 < ratio <= max_tenant_p99_ratio,
                      f"{ratio:.2f} (bound {max_tenant_p99_ratio})")

    if failures:
        print(f"\n{len(failures)} of {checked} invariant(s) violated: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"\nall {checked} invariants hold")
    return 0


def run_policy_sanity(report_path, margin):
    with open(report_path) as f:
        doc = json.load(f)
    c3 = case_p99(doc, "c3-noderate")
    random_p99 = case_p99(doc, "random")
    ok = c3 < margin * random_p99
    print(f"{'ok' if ok else 'FAIL':4} policy sanity: p99(c3-noderate)={c3:.3f} ms "
          f"vs p99(random)={random_p99:.3f} ms (margin {margin:.2f})")
    if not ok:
        print("policy sanity violated: C3's replica ranking should beat random "
              "selection on p99 at high load", file=sys.stderr)
        return 1
    return 0


def run_hedge_sanity(report_path, max_dwf):
    with open(report_path) as f:
        doc = json.load(f)

    # Group hedging-shootout cases by workload prefix ("diurnal/...").
    workloads = {}
    for case in doc["cases"]:
        prefix, _, mode = case["label"].rpartition("/")
        if not prefix:
            raise SystemExit(f"case '{case['label']}' has no workload/mode label "
                             "(is this a hedging-shootout report?)")
        workloads.setdefault(prefix, {})[mode] = case

    failures = []

    def check(name, ok, detail):
        print(f"{'ok' if ok else 'FAIL':4} {name}: {detail}")
        if not ok:
            failures.append(name)

    for prefix, modes in sorted(workloads.items()):
        single = modes.get("single")
        hedged = next((c for m, c in modes.items() if m.startswith("hedge")), None)
        if single is None or hedged is None:
            raise SystemExit(f"workload '{prefix}' is missing its single or hedge "
                             "case — the sanity gate needs both")
        single_p99 = single["task_latency_ms"]["p99_ms"]["mean"]
        hedged_p99 = hedged["task_latency_ms"]["p99_ms"]["mean"]
        check(f"{prefix}/hedge_beats_single_p99",
              hedged_p99 < single_p99,
              f"p99(hedge)={hedged_p99:.3f} ms vs p99(single)={single_p99:.3f} ms")
        dwfs = [run.get("duplicate_work_fraction", 0.0) for run in hedged["runs"]]
        worst = max(dwfs) if dwfs else 0.0
        check(f"{prefix}/hedge_duplicate_work",
              worst < max_dwf,
              f"duplicate_work_fraction={worst:.4f} (bound {max_dwf})")

    if failures:
        print(f"\nhedge sanity violated: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("\nhedging pays for itself on every workload")
    return 0


def run_scale_sanity(report_path, max_wall_seconds, max_rss_mb, sketch_tolerance):
    with open(report_path) as f:
        doc = json.load(f)

    failures = []
    checked = 0

    def check(name, ok, detail):
        nonlocal checked
        checked += 1
        print(f"{'ok' if ok else 'FAIL':4} {name}: {detail}")
        if not ok:
            failures.append(name)

    timing = doc.get("timing", {})
    wall = timing.get("total_wall_seconds")
    check("wall_budget", wall is not None and wall <= max_wall_seconds,
          f"{wall:.1f}s (budget {max_wall_seconds:.0f}s)" if wall is not None
          else "timing.total_wall_seconds missing")
    rss = timing.get("peak_rss_mb")
    check("rss_budget", rss is not None and rss <= max_rss_mb,
          f"peak {rss:.0f} MB per process (budget {max_rss_mb:.0f} MB)"
          if rss is not None else "timing.peak_rss_mb missing")

    for case in doc.get("cases", []):
        label = case["label"]
        expected_tasks = case.get("tasks", doc["config"]["tasks"])
        if not case.get("runs"):
            check(f"{label}/runs", False, "case has no runs")
            continue
        pooled = case.get("task_latency_sketch")
        check(f"{label}/pooled_sketch", pooled is not None,
              f"count={pooled['count']}" if pooled else "case-level sketch missing")
        run_sketch_total = 0
        for run in case["runs"]:
            tag = f"{label}/seed={run['seed']}"
            check(f"{tag}/tasks_completed",
                  run["tasks_completed"] == expected_tasks,
                  f"{run['tasks_completed']} of {expected_tasks}")
            check(f"{tag}/sparse_store",
                  run.get("sparse_signal_store") is True,
                  "sparse signal store engaged" if run.get("sparse_signal_store")
                  else "ran on the dense store — not a scale test")
            sketch = run.get("task_latency_sketch")
            if sketch is None:
                check(f"{tag}/sketch", False, "per-run sketch missing")
                continue
            run_sketch_total += sketch["count"]
            measured = run.get("tasks_measured", run["tasks_completed"])
            check(f"{tag}/sketch_count",
                  sketch["count"] == measured,
                  f"sketch holds {sketch['count']} of {measured} measured samples")
            for metric in ("p50_ms", "p95_ms", "p99_ms"):
                exact = run[metric]
                est = sketch[metric]
                rel = abs(est - exact) / exact if exact else abs(est)
                check(f"{tag}/sketch_{metric}",
                      rel <= sketch_tolerance,
                      f"sketch {est:.3f} ms vs exact {exact:.3f} ms "
                      f"(rel {rel:.2%}, bound {sketch_tolerance:.0%})")
        if pooled is not None:
            check(f"{label}/pooled_sketch_count",
                  pooled["count"] == run_sketch_total,
                  f"pooled {pooled['count']} vs per-run sum {run_sketch_total}")

    if failures:
        print(f"\n{len(failures)} of {checked} scale check(s) failed: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"\nall {checked} scale checks hold")
    return 0


def strip_wall_clock(node, top=True):
    """Drops wall-clock time (the one legitimately nondeterministic
    part of a report): the top-level "timing" object in format-2
    artifacts, plus per-run "wall_seconds" fields in format-1 ones."""
    if isinstance(node, dict):
        return {k: strip_wall_clock(v, top=False) for k, v in node.items()
                if k != "wall_seconds" and not (top and k == "timing")}
    if isinstance(node, list):
        return [strip_wall_clock(v, top=False) for v in node]
    return node


def run_identical(a_path, b_path):
    with open(a_path) as f:
        a = strip_wall_clock(json.load(f))
    with open(b_path) as f:
        b = strip_wall_clock(json.load(f))
    if a != b:
        print(f"FAIL: {a_path} and {b_path} differ beyond wall-clock timing "
              "(thread/shard determinism broken)", file=sys.stderr)
        return 1
    print(f"ok: {a_path} == {b_path} (modulo wall-clock timing)")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("files", nargs="+",
                        help="fresh.json reference.json | --invariants report.json | "
                             "--identical a.json b.json")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max relative drift per metric (default 0.10)")
    parser.add_argument("--invariants", action="store_true",
                        help="scenario-independent health checks on one report")
    parser.add_argument("--identical", action="store_true",
                        help="two reports must match modulo wall_seconds")
    parser.add_argument("--policy-sanity", action="store_true",
                        help="policy-shootout report: c3-noderate must beat random on p99")
    parser.add_argument("--hedge-sanity", action="store_true",
                        help="hedging-shootout report: hedge beats single on p99 with "
                             "bounded duplicate work, per workload")
    parser.add_argument("--max-dwf", type=float, default=0.1,
                        help="bound on duplicate_work_fraction (hedge-sanity mode)")
    parser.add_argument("--scale-sanity", action="store_true",
                        help="mega-fleet report: wall/RSS budgets, sparse store "
                             "engaged, sketch percentiles within bound of exact")
    parser.add_argument("--max-wall-seconds", type=float, default=1800.0,
                        help="wall-clock budget in seconds (scale-sanity mode)")
    parser.add_argument("--max-rss-mb", type=float, default=12288.0,
                        help="peak-RSS budget per process in MB (scale-sanity mode)")
    parser.add_argument("--sketch-tolerance", type=float, default=0.05,
                        help="max relative sketch-vs-exact percentile error "
                             "(scale-sanity mode)")
    parser.add_argument("--margin", type=float, default=1.0,
                        help="p99(c3-noderate) < margin * p99(random) (policy-sanity mode)")
    parser.add_argument("--max-tenant-p99-ratio", type=float, default=100.0,
                        help="bound on per-tenant p99 spread (invariants mode)")
    args = parser.parse_args()

    if args.policy_sanity:
        if len(args.files) != 1:
            parser.error("--policy-sanity takes exactly one report")
        return run_policy_sanity(args.files[0], args.margin)
    if args.hedge_sanity:
        if len(args.files) != 1:
            parser.error("--hedge-sanity takes exactly one report")
        return run_hedge_sanity(args.files[0], args.max_dwf)
    if args.scale_sanity:
        if len(args.files) != 1:
            parser.error("--scale-sanity takes exactly one report")
        return run_scale_sanity(args.files[0], args.max_wall_seconds,
                                args.max_rss_mb, args.sketch_tolerance)
    if args.invariants:
        if len(args.files) != 1:
            parser.error("--invariants takes exactly one report")
        return run_invariants(args.files[0], args.max_tenant_p99_ratio)
    if args.identical:
        if len(args.files) != 2:
            parser.error("--identical takes exactly two reports")
        return run_identical(args.files[0], args.files[1])
    if len(args.files) != 2:
        parser.error("reference diff takes fresh.json reference.json")
    return run_reference_diff(args.files[0], args.files[1], args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
