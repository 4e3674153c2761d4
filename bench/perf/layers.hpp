// Span recording and per-layer replays for the brb_perf harness.
//
// The traced run times the simulator layer by layer without touching
// src/: for one (case, seed) run it regenerates the run's exact inputs
// and drives each layer's public API directly, outside the event loop,
// at the run's own counts. Each replay's host time, divided by the
// run's simulate-phase host time, is that layer's `busy_frac`; the
// remainder is glue the replays cannot isolate (client executor,
// callbacks, cache interference). Spans are kept in memory and written
// once at exit as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "stats/report.hpp"

namespace brb::perf {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// In-memory span recorder. Spans nest by explicit parent index; `id`
/// names the (case, seed) unit the span belongs to.
class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  Tracer() : origin_(Clock::now()) {}

  /// Records a finished span [start, end) and returns its index.
  std::size_t add(std::string name, Clock::time_point start, Clock::time_point end,
                  std::size_t parent, std::string id);

  /// Opens a span starting now; close it with end().
  std::size_t begin(std::string name, std::size_t parent, std::string id) {
    const auto now = Clock::now();
    return add(std::move(name), now, now, parent, std::move(id));
  }
  void end(std::size_t span) { spans_.at(span).end = Clock::now(); }

  /// Chrome trace-event document ("X" complete events, microseconds).
  stats::Json to_chrome_json() const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t parent = kNoParent;
    std::string id;
  };

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Host time and work counts of one case's layer replays.
struct LayerReplay {
  double dataset_s = 0.0;    // Dataset constructor
  double populate_s = 0.0;   // replica placement + StorageEngine::put_meta, every key
  double workload_s = 0.0;   // TaskGenerator::fill_block, 256-task blocks
  double sim_s = 0.0;        // self-rescheduling Simulator chains
  double ctrl_s = 0.0;       // dispatch policies + SignalTable feedback
  double policy_s = 0.0;     // compute_bottleneck + PriorityPolicy::assign
  double server_s = 0.0;     // closed-loop BackendServer::receive, engine share removed
  double stats_s = 0.0;      // LatencyRecorder::record

  std::uint64_t tasks = 0;          // tasks in the replayed stream
  std::uint64_t requests = 0;       // logical requests (sum of fan-outs)
  std::uint64_t wire_requests = 0;  // requests on the wire (writes count once per replica)
  std::uint64_t events = 0;         // events fired by the sim replay
  std::uint64_t records = 0;        // LatencyRecorder::record calls
};

/// Replays every layer for one executed run. `config` is the run's
/// config (seed set); `run` its result. Spans land under `parent`.
/// Throws std::invalid_argument for configs the replays do not model
/// (trace replay, tenant mixes, global-queue systems, heterogeneous
/// fleets, systems without recorded defaults).
LayerReplay replay_layers(const core::ScenarioConfig& config, const core::RunResult& run,
                          Tracer& tracer, std::size_t parent, const std::string& id);

}  // namespace brb::perf
