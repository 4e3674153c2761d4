// The paper's motivating scenario: playlist hydration.
//
// A music-streaming page load asks the data store for every track in a
// playlist — one *task* with a fan-out of dozens of reads. The page
// renders only when the slowest read returns, so the user-visible
// latency is the task maximum.
//
// This example replays the exact same workload (heavy playlist skew:
// most page loads touch 1-2 tracks, a few touch hundreds) through a
// task-oblivious deployment and through BRB's EqualMax-over-credits,
// then breaks latency down by playlist size. The point the paper's
// Figure 1 makes in miniature appears at scale: small playlists stop
// queueing behind giant ones.
//
//   $ ./example_playlist_fanout
#include <array>
#include <iostream>
#include <vector>

#include "core/run_builder.hpp"
#include "stats/latency_recorder.hpp"
#include "stats/table.hpp"

namespace {

int bucket_of(std::uint32_t fanout) {
  if (fanout <= 2) return 0;
  if (fanout <= 8) return 1;
  if (fanout <= 32) return 2;
  return 3;
}

constexpr std::array<const char*, 4> kBucketNames = {"1-2 tracks", "3-8 tracks", "9-32 tracks",
                                                     "33+ tracks"};

}  // namespace

int main() {
  using brb::core::ScenarioConfig;
  using brb::core::SystemKind;

  std::cout << "Playlist hydration: task-oblivious vs BRB (EqualMax + credits)\n"
            << "Same trace replayed through both systems; latency by playlist size.\n\n";

  // Generate one workload trace shared by both systems.
  ScenarioConfig base;
  base.num_tasks = 60'000;
  base.seed = 7;
  std::vector<brb::workload::TaskSpec> trace;
  {
    brb::util::Rng rng(base.seed);
    const brb::util::Rng dataset_rng = rng.split();
    brb::core::Workload stream(base, dataset_rng, rng.split());
    trace = stream.generator.generate(base.num_tasks);
  }

  std::array<std::uint64_t, 4> bucket_counts{};
  for (const auto& task : trace) ++bucket_counts[static_cast<std::size_t>(bucket_of(task.fanout()))];

  for (const SystemKind kind : {SystemKind::kFifoDirect, SystemKind::kEqualMaxCredits}) {
    ScenarioConfig config = base;
    config.system = kind;
    config.tasks_override = &trace;

    std::array<brb::stats::LatencyRecorder, 4> buckets{
        brb::stats::LatencyRecorder(false), brb::stats::LatencyRecorder(false),
        brb::stats::LatencyRecorder(false), brb::stats::LatencyRecorder(false)};
    config.on_task_complete = [&buckets](const brb::workload::TaskSpec& task,
                                         brb::sim::Duration latency) {
      buckets[static_cast<std::size_t>(bucket_of(task.fanout()))].record(latency);
    };

    const brb::core::RunResult result = brb::core::run_scenario(config);
    const brb::core::LatencySummary overall = brb::core::summarize_tasks(result);

    std::cout << "=== " << to_string(kind) << " ===\n";
    std::cout << "overall: median " << brb::stats::fmt_millis(overall.p50_ms) << "  p95 "
              << brb::stats::fmt_millis(overall.p95_ms) << "  p99 "
              << brb::stats::fmt_millis(overall.p99_ms) << "\n";
    brb::stats::Table table({"playlist size", "share", "median", "p95", "p99"});
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b].count() == 0) continue;
      table.add_row(
          {kBucketNames[b],
           brb::stats::fmt_double(100.0 * static_cast<double>(bucket_counts[b]) /
                                      static_cast<double>(trace.size()),
                                  1) +
               "%",
           brb::stats::fmt_millis(buckets[b].percentile(50).as_millis()),
           brb::stats::fmt_millis(buckets[b].percentile(95).as_millis()),
           brb::stats::fmt_millis(buckets[b].percentile(99).as_millis())});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Small playlists dominate page loads; BRB lets them bypass the\n"
               "giants' queues — that is where the median and p95 wins come from.\n";
  return 0;
}
