// Trace record & replay.
//
// Production evaluations (like the paper's SoundCloud trace) replay a
// recorded request stream against candidate systems so every candidate
// sees byte-identical input. This example:
//   1. generates a workload and writes it to a trace file,
//   2. reads the trace back (round-trip through the on-disk format),
//   3. replays it through two systems and compares like-for-like.
//
//   $ ./example_trace_replay [trace.csv]
#include <cstdio>
#include <iostream>
#include <string>

#include "core/run_builder.hpp"
#include "stats/table.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/brb_example_trace.csv";

  // 1. Generate and record.
  brb::core::ScenarioConfig base;
  base.num_tasks = 30'000;
  {
    brb::util::Rng rng(123);
    const brb::util::Rng dataset_rng = rng.split();
    brb::core::Workload stream(base, dataset_rng, rng.split());
    const auto tasks = stream.generator.generate(base.num_tasks);
    brb::workload::TraceWriter::write_file(path, tasks);
    std::cout << "wrote " << tasks.size() << " tasks ("
              << tasks.back().arrival.as_seconds() << "s of arrivals) to " << path << "\n";
  }

  // 2. Round-trip check.
  const auto replayed = brb::workload::TraceReader::read_file(path);
  std::cout << "read back " << replayed.size() << " tasks; first fan-out "
            << replayed.front().fanout() << ", last arrival "
            << replayed.back().arrival.as_seconds() << "s\n\n";

  // 3. Replay through two systems.
  brb::stats::Table table({"system", "median", "p95", "p99"});
  for (const auto kind :
       {brb::core::SystemKind::kC3, brb::core::SystemKind::kEqualMaxCredits}) {
    brb::core::ScenarioConfig config = base;
    config.system = kind;
    config.trace_path = path;  // arrivals, fan-outs, sizes all from disk
    const brb::core::RunResult result = brb::core::run_scenario(config);
    const brb::core::LatencySummary summary = brb::core::summarize_tasks(result);
    table.add_row({to_string(kind), brb::stats::fmt_millis(summary.p50_ms),
                   brb::stats::fmt_millis(summary.p95_ms),
                   brb::stats::fmt_millis(summary.p99_ms)});
  }
  table.print(std::cout);
  std::cout << "\nBoth rows consumed byte-identical input — any difference is policy.\n";
  std::remove(path.c_str());
  return 0;
}
