#!/usr/bin/env python3
"""Self-test of the brb_perf harness at smoke scale (about a minute).

    python3 bench/perf/selftest.py [--bin PATH]

Checks that
  1. every metric named in BENCHMARK.json is printed as `name value unit`
     with the unit BENCHMARK.json gives it, for every workload;
  2. two smoke runs report identical sim_digest values;
  3. a --trace smoke run writes valid Chrome trace-event JSON.
Without --bin it builds brb_perf the way run.py does. Exits 0 when every
check passes.
"""

import argparse
import json
import os
import re
import subprocess
import sys

import run

LINE = re.compile(r"^(\S+) (\S+) (\S+)$")


def smoke(binary, workdir, name, trace):
    """Runs `brb_perf --smoke`; returns (stdout, result document, trace path)."""
    json_path = os.path.join(workdir, f"{name}.json")
    command = [binary, "--smoke", f"--json={json_path}"]
    trace_path = os.path.join(workdir, f"{name}-trace.json") if trace else None
    if trace_path:
        command.append(f"--trace={trace_path}")
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    with open(json_path) as f:
        return proc.stdout, json.load(f), trace_path


def printed_metrics(stdout):
    """Maps workload -> {metric name: unit} from brb_perf's report."""
    sections = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("# workload "):
            current = sections.setdefault(line.split()[2].rstrip(":"), {})
            continue
        match = LINE.match(line)
        if current is not None and match:
            try:
                float(match.group(2))
            except ValueError:
                continue
            current[match.group(1)] = match.group(3)
    return sections


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin", help="brb_perf binary (default: build it)")
    args = parser.parse_args()
    binary = args.bin or run.build()
    workdir = os.path.join(run.BUILD, "selftest")
    os.makedirs(workdir, exist_ok=True)
    spec = run.benchmark_spec()
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    failures = []
    first_out, first, _ = smoke(binary, workdir, "first", trace=False)
    _, second, _ = smoke(binary, workdir, "second", trace=False)
    traced_out, traced, trace_path = smoke(binary, workdir, "traced", trace=True)

    # 1. every BENCHMARK.json metric, with its unit, for every workload
    sections = printed_metrics(traced_out)
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        printed = sections.get(workload, {})
        for name, unit in expected.items():
            if printed.get(name) != unit:
                failures.append(f"{workload}: {name} printed as {printed.get(name)!r}, want {unit!r}")
    if sorted(sections) != sorted(names):
        failures.append(f"smoke ran {sorted(sections)}, BENCHMARK.json names {sorted(names)}")
    if not printed_metrics(first_out):
        failures.append("untraced smoke run printed no metrics")

    # 2. identical digests across runs (the traced run too)
    for doc in (first, second, traced):
        for result in doc["workloads"]:
            if not result["correct"]:
                failures.append(f"{result['workload']}: a check failed in smoke mode")
    digests = [{r["workload"]: r["sim_digest"] for r in doc["workloads"]}
               for doc in (first, second, traced)]
    if not digests[0] == digests[1] == digests[2]:
        failures.append(f"sim_digest differs between smoke runs: {digests}")

    # 3. the trace is valid trace-event JSON with the recorded spans
    try:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        for event in events:
            for key in ("name", "ph", "ts", "dur", "pid", "tid", "args"):
                if key not in event:
                    raise ValueError(f"span without {key}: {event}")
            if event["ph"] != "X" or event["dur"] < 0 or "id" not in event["args"]:
                raise ValueError(f"malformed span: {event}")
        span_names = {event["name"] for event in events}
        for name in ("run", "setup", "simulate", "replay.sim", "replay.workload.generate",
                     "replay.ctrl", "replay.policy", "replay.server", "replay.stats"):
            if name not in span_names:
                raise ValueError(f"no {name!r} span")
    except (OSError, ValueError, KeyError) as e:
        failures.append(f"trace {trace_path}: {e}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
