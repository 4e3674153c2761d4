// brb_perf — the repository benchmark harness.
//
// Runs one named workload in one single-threaded process and reports
// its end-to-end metrics, the results of its correctness checks and a
// digest of every simulated output:
//
//   brb_perf --workload=paper --seed=1 [--seconds=20] [--json=PATH]
//   brb_perf --workload=paper --seed=1 --trace=trace.json   # + per-layer metrics
//   brb_perf --smoke [--workload=NAME]                       # one small pass of each
//
// A workload is a fixed list of plain `brbsim` flag sets expanded
// through the public driver API, run once per (case, seed) with
// `core::run_scenario`. The only thing the harness adds to a config is
// an `on_task_complete` hook that reads the host clock at the first
// task completion, splitting each run into a setup phase (dataset,
// storage, fleet and client construction) and a simulate phase.
//
// Passes over the run list repeat while another fits in --seconds.
// Each run's host times and memory come from its fastest pass, and each
// case reports the median over its seeds, so neither a pass disturbed
// by a noisy neighbour nor a seed whose credits loop collapses (about 1
// run in 20 on the paper fleet) moves them.
//
// Every metric is printed as `name value unit`. Exit status: 0 when
// every check passed, 1 when any failed, 2 on a usage error.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "cli/scenario_registry.hpp"
#include "core/scenario.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "layers.hpp"
#include "stats/report.hpp"
#include "util/flags.hpp"

extern char** environ;

namespace {

using brb::perf::Clock;
using brb::perf::seconds_between;
using brb::perf::Tracer;
namespace core = brb::core;
namespace stats = brb::stats;

/// One benchmark workload: `brbsim <flags> --tasks=<tasks>` restricted
/// to cases whose label starts with `case_prefix`, at seeds
/// S .. S+seeds-1. Why each exists is recorded in README.md.
struct Workload {
  std::string name;
  std::vector<std::string> flags;
  std::uint64_t tasks = 0;
  std::uint32_t seeds = 1;
  /// Smoke runs use seed S only, at this task count: the smallest at
  /// which every check of the workload still holds.
  std::uint64_t smoke_tasks = 0;
  std::string case_prefix;
  std::string primary;  // the case whose p99 is the headline number
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"paper",
       {"--scenario=paper", "--systems=equalmax-credits,c3"},
       60'000,
       5,
       6'000,
       "",
       "equalmax-credits"},
      {"large-fleet",
       {"--scenario=hedging-shootout", "--dispatches=single,hedge:q98,tied"},
       40'000,
       4,
       40'000,  // hedges waste more while deadlines warm up: ~0.1 at 20k tasks
       "steady/",
       "steady/hedge:q98"},
      {"write-mix",
       {"--scenario=write-heavy", "--writes=0.05", "--systems=equalmax-credits,c3"},
       60'000,
       5,
       6'000,
       "",
       "equalmax-credits@writes=0.05"},
      {"sparse-fleet",
       {"--scenario=policy-shootout", "--policies=two-choices,c3-noderate", "--servers=1000",
        "--clients=50000", "--keys=uniform:100000", "--stats=sketch"},
       100'000,
       1,
       100'000,  // evictions need a second task per client (2 x 50k clients)
       "",
       "two-choices"},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// One (case, seed) unit of a workload.
struct Unit {
  std::string label;
  core::ScenarioConfig config;
};

std::vector<Unit> expand(const Workload& workload, std::uint64_t seed, bool smoke) {
  std::vector<std::string> args = {"brbsim"};
  args.insert(args.end(), workload.flags.begin(), workload.flags.end());
  args.push_back("--tasks=" + std::to_string(smoke ? workload.smoke_tasks : workload.tasks));
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  const brb::util::Flags flags(static_cast<int>(argv.size()), argv.data());
  brb::cli::validate_flags(flags);
  const core::ScenarioConfig base = brb::cli::config_from_flags(flags);
  const brb::cli::ScenarioSpec* scenario =
      brb::cli::find_scenario(flags.get_string("scenario", ""));
  if (scenario == nullptr) throw std::logic_error("workload " + workload.name + ": no scenario");

  std::vector<brb::cli::ExperimentCase> cases;
  for (brb::cli::ExperimentCase& experiment : scenario->expand(base, flags)) {
    if (experiment.label.rfind(workload.case_prefix, 0) == 0) cases.push_back(std::move(experiment));
  }
  // Seed-major order: each case's runs are spread over the whole pass,
  // so a slow stretch of the host hits every case a little rather than
  // one case entirely.
  std::vector<Unit> units;
  for (std::uint32_t s = 0; s < (smoke ? 1 : workload.seeds); ++s) {
    for (const brb::cli::ExperimentCase& experiment : cases) {
      Unit unit{experiment.label, experiment.config};
      unit.config.seed = seed + s;
      units.push_back(std::move(unit));
    }
  }
  return units;
}

std::string unit_id(const Unit& unit) {
  return unit.label + "@" + std::to_string(unit.config.seed);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (*std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid)) +
          upper) /
         2.0;
}

/// Returns freed heap pages to the kernel and resets its peak-RSS mark
/// (VmHWM) to the current RSS, so the next peak_rss_mb() reading is the
/// peak of what ran in between. Where the reset is unsupported the
/// reading stays the process-lifetime peak.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Host cost of one executed run.
struct Timing {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double simulate_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// Runs one unit with the setup/simulate split hook installed.
Timing run_unit(const Unit& unit, core::RunResult& result, Tracer* tracer, std::size_t parent) {
  core::ScenarioConfig config = unit.config;
  std::optional<Clock::time_point> first_completion;
  config.on_task_complete = [&first_completion](const brb::workload::TaskSpec&,
                                                brb::sim::Duration) {
    if (!first_completion) first_completion = Clock::now();
  };
  reset_peak_rss();
  const auto start = Clock::now();
  result = core::run_scenario(config);
  const auto end = Clock::now();
  const auto split = first_completion.value_or(end);
  if (tracer != nullptr) {
    const std::string id = unit_id(unit);
    const std::size_t run_span = tracer->add("run", start, end, parent, id);
    tracer->add("setup", start, split, run_span, id);
    tracer->add("simulate", split, end, run_span, id);
  }
  return {seconds_between(start, end), seconds_between(start, split), seconds_between(split, end),
          peak_rss_mb()};
}

/// FNV-1a over each run's deterministic outputs.
class Digest {
 public:
  void add_run(const std::string& label, const core::RunResult& run) {
    add(label.data(), label.size());
    add_u64(run.seed);
    add_u64(run.events_processed);
    add_u64(run.requests_completed);
    add_u64(static_cast<std::uint64_t>(run.task_latency.percentile(50).count_nanos()));
    add_u64(static_cast<std::uint64_t>(run.task_latency.percentile(99).count_nanos()));
    add_u64(run.network_bytes);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  void add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_u64(std::uint64_t value) { add(&value, sizeof value); }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The outputs kept of an untraced run. Whole RunResults carry ~0.5 MB
/// of histograms each; keeping them would raise every later run's peak
/// RSS by its position in the pass.
struct Outputs {
  double p99_ms = 0.0;
  double duplicate_work_fraction = 0.0;
  bool sparse_signal_store = false;
  std::uint64_t signal_evictions = 0;
  double sketch_error = 1.0;  // |sketch p99 / histogram p99 - 1|; 1 without a sketch
  std::string violation;      // conservation failure, empty when none
};

Outputs summarize(const core::RunResult& run) {
  Outputs out;
  out.p99_ms = run.task_latency.percentile(99).as_millis();
  out.duplicate_work_fraction = run.duplicate_work_fraction;
  out.sparse_signal_store = run.sparse_signal_store;
  out.signal_evictions = run.signal_evictions;
  if (const stats::QuantileSketch* sketch = run.task_latency.sketch(); sketch != nullptr) {
    const double exact = static_cast<double>(run.task_latency.percentile(99).count_nanos());
    out.sketch_error = std::abs(sketch->quantile(0.99) / exact - 1.0);
  }
  if (run.tasks_completed != run.tasks_submitted) out.violation = "completed != submitted";
  if (run.gate_held_requests != 0) out.violation = "requests still held at the gate";
  if (run.write_requests_acked != run.write_requests_sent) out.violation = "write copies lost";
  return out;
}

/// Everything measured for one unit: the first pass's outputs plus one
/// timing per pass (repeats are checked identical through the digest).
struct UnitRecord {
  const Unit* unit = nullptr;
  bool ran = false;     // run_scenario returned a result
  bool failed = false;  // threw, or a check covering it failed
  std::string error;
  Outputs out;
  std::vector<Timing> timings;
};

/// Runs every unit once; the first pass records outputs, later passes
/// only timings. Returns the pass's digest.
std::string run_pass(std::vector<UnitRecord>& records, bool first) {
  Digest digest;
  for (UnitRecord& r : records) {
    if (!first && !r.ran) continue;
    try {
      core::RunResult result;
      r.timings.push_back(run_unit(*r.unit, result, nullptr, Tracer::kNoParent));
      digest.add_run(r.unit->label, result);
      if (first) {
        r.out = summarize(result);
        r.ran = true;
      }
    } catch (const std::exception& e) {
      r.failed = true;
      r.error = e.what();
    }
  }
  return digest.hex();
}

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string fmt(double value) {
  std::ostringstream os;
  os << std::setprecision(6) << value;
  return os.str();
}

std::vector<const UnitRecord*> case_records(const std::vector<UnitRecord>& records,
                                            const std::string& label) {
  std::vector<const UnitRecord*> out;
  for (const UnitRecord& r : records) {
    if (r.ran && r.unit->label == label) out.push_back(&r);
  }
  return out;
}

std::vector<double> case_p99s(const std::vector<UnitRecord>& records, const std::string& label) {
  std::vector<double> out;
  for (const UnitRecord* r : case_records(records, label)) out.push_back(r->out.p99_ms);
  return out;
}

/// Per-run conservation checks plus the workload's own behavioural
/// checks. A failed check marks the runs it covers as failed.
std::vector<Check> run_checks(const Workload& workload, std::vector<UnitRecord>& records) {
  std::vector<Check> checks;
  bool conserved = true;
  for (UnitRecord& r : records) {
    if (!r.ran) {
      conserved = false;
    } else if (!r.out.violation.empty()) {
      checks.push_back({"conservation:" + unit_id(*r.unit), false, r.out.violation});
      r.failed = true;
      conserved = false;
    }
  }
  checks.push_back({"conservation", conserved, conserved ? "every run drained and conserved" : ""});
  if (!conserved) return checks;

  const auto add = [&](const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
    if (!ok) {
      for (UnitRecord& r : records) r.failed = true;
    }
  };
  if (workload.name == "paper") {
    // Median over seeds, not mean: now and then the credits loop
    // collapses and that seed's p99 is seconds, not milliseconds.
    const double ratio = median(case_p99s(records, "c3")) /
                         median(case_p99s(records, "equalmax-credits"));
    add("paper:c3_over_equalmax_p99", ratio >= 1.5, "ratio " + fmt(ratio) + " (need >= 1.5)");
  } else if (workload.name == "large-fleet") {
    bool tied_free = true;
    bool tied_faster = true;
    const auto single = case_records(records, "steady/single");
    const auto tied = case_records(records, "steady/tied");
    for (std::size_t i = 0; i < tied.size() && i < single.size(); ++i) {
      tied_free = tied_free && tied[i]->out.duplicate_work_fraction == 0.0;
      tied_faster = tied_faster && tied[i]->out.p99_ms < single[i]->out.p99_ms;
    }
    double hedge_dup = 0.0;
    for (const UnitRecord* r : case_records(records, "steady/hedge:q98")) {
      hedge_dup = std::max(hedge_dup, r->out.duplicate_work_fraction);
    }
    add("large-fleet:tied_no_duplicate_work", tied_free, "tied duplicate-work fraction is 0");
    add("large-fleet:tied_beats_single_p99", tied_faster, "at every seed");
    add("large-fleet:hedge_duplicate_work", hedge_dup < 0.1,
        "max fraction " + fmt(hedge_dup) + " (need < 0.1)");
  } else if (workload.name == "sparse-fleet") {
    bool sparse = true;
    bool evicted = true;
    double worst = 0.0;
    for (const UnitRecord& r : records) {
      sparse = sparse && r.out.sparse_signal_store;
      evicted = evicted && r.out.signal_evictions > 0;
      worst = std::max(worst, r.out.sketch_error);
    }
    add("sparse-fleet:sparse_store", sparse, "sparse signal store engaged");
    add("sparse-fleet:evictions", evicted, "LRU evictions > 0 in every run");
    add("sparse-fleet:sketch_p99", worst <= 0.05,
        "worst |sketch/histogram - 1| " + fmt(worst) + " (need <= 0.05)");
  }
  return checks;
}

/// Field-wise minimum over a run's passes. Every pass repeats the run
/// exactly (the digest check holds it to that), so passes differ only by
/// host interference, which only ever adds time, and by heap left over
/// from earlier runs, which only ever adds memory; the minimum is the
/// estimate least disturbed by either.
Timing fastest(const std::vector<Timing>& timings) {
  Timing best = timings.front();
  for (const Timing& t : timings) {
    best.wall_s = std::min(best.wall_s, t.wall_s);
    best.setup_s = std::min(best.setup_s, t.setup_s);
    best.simulate_s = std::min(best.simulate_s, t.simulate_s);
    best.peak_rss_mb = std::min(best.peak_rss_mb, t.peak_rss_mb);
  }
  return best;
}

/// End-to-end metrics over all untraced passes. Each run contributes its
/// fastest pass; each case contributes the median over its seeds, scaled
/// to its run count for the sums, so one slow seed cannot move them.
std::vector<Metric> end_to_end(const Workload& workload, const std::vector<UnitRecord>& records) {
  std::vector<std::string> labels;
  for (const UnitRecord& r : records) {
    if (std::find(labels.begin(), labels.end(), r.unit->label) == labels.end()) {
      labels.push_back(r.unit->label);
    }
  }
  double wall = 0.0;
  double simulate = 0.0;
  double tasks = 0.0;
  double rss = 0.0;
  std::vector<double> setups;
  for (const std::string& label : labels) {
    std::vector<double> walls;
    std::vector<double> simulates;
    std::vector<double> peaks;
    const auto runs = case_records(records, label);
    for (const UnitRecord* r : runs) {
      tasks += static_cast<double>(r->unit->config.num_tasks);
      const Timing best = fastest(r->timings);
      walls.push_back(best.wall_s);
      simulates.push_back(best.simulate_s);
      setups.push_back(best.setup_s);
      peaks.push_back(best.peak_rss_mb);
    }
    const double count = static_cast<double>(runs.size());
    wall += count * median(walls);
    simulate += count * median(simulates);
    rss = std::max(rss, median(peaks));
  }
  return {
      {"wall_s", wall, "s"},
      {"setup_s", median(setups), "s"},
      {"tasks_per_s", simulate > 0.0 ? tasks / simulate : 0.0, "tasks/s"},
      {"peak_rss_mb", rss, "MB"},
      {"sim_p99_ms", median(case_p99s(records, workload.primary)), "ms"},
  };
}

/// One run of the traced pass, kept whole for the per-layer metrics.
struct TracedRun {
  const Unit* unit = nullptr;
  core::RunResult result;
  Timing timing;
};

/// Per-layer metrics of the traced pass plus its layer replays.
std::vector<Metric> per_layer(const std::vector<TracedRun>& traced,
                              const std::vector<brb::perf::LayerReplay>& replays,
                              double replayed_simulate_s, double untraced_wall_s) {
  double setup = 0.0;
  double simulate = 0.0;
  double wall = 0.0;
  double tasks = 0.0;
  double events = 0.0;
  double adaptations = 0.0;
  double congestion = 0.0;
  double writes = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  double evictions = 0.0;
  double live = 0.0;
  double duplicates_served = 0.0;
  double full_services = 0.0;
  double hedges_won = 0.0;
  double hedges_issued = 0.0;
  double utilization = 0.0;
  double holds = 0.0;
  double hold_s = 0.0;
  for (const TracedRun& t : traced) {
    const core::RunResult& run = t.result;
    setup += t.timing.setup_s;
    simulate += t.timing.simulate_s;
    wall += t.timing.wall_s;
    tasks += static_cast<double>(run.tasks_completed);
    events += static_cast<double>(run.events_processed);
    adaptations += static_cast<double>(run.controller_adaptations);
    congestion += static_cast<double>(run.congestion_signals);
    writes += static_cast<double>(run.write_requests_sent);
    messages += static_cast<double>(run.network_messages);
    bytes += static_cast<double>(run.network_bytes);
    evictions += static_cast<double>(run.signal_evictions);
    live += static_cast<double>(run.signal_entries_live);
    duplicates_served += static_cast<double>(run.duplicates_served);
    full_services += static_cast<double>(run.requests_completed + run.duplicates_served);
    hedges_won += static_cast<double>(run.hedges_won);
    hedges_issued += static_cast<double>(run.hedges_issued);
    utilization += run.mean_utilization;
    holds += static_cast<double>(run.credit_hold_events);
    hold_s += run.credit_hold_time.as_seconds();
  }

  brb::perf::LayerReplay sum;
  for (const brb::perf::LayerReplay& l : replays) {
    sum.dataset_s += l.dataset_s;
    sum.populate_s += l.populate_s;
    sum.workload_s += l.workload_s;
    sum.sim_s += l.sim_s;
    sum.ctrl_s += l.ctrl_s;
    sum.policy_s += l.policy_s;
    sum.server_s += l.server_s;
    sum.stats_s += l.stats_s;
    sum.tasks += l.tasks;
    sum.requests += l.requests;
    sum.wire_requests += l.wire_requests;
    sum.events += l.events;
    sum.records += l.records;
  }
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto per = [&](double seconds, std::uint64_t count) {
    return ratio(seconds * 1e9, static_cast<double>(count));
  };
  const auto busy = [&](double seconds) { return ratio(seconds, replayed_simulate_s); };
  const double cases = static_cast<double>(replays.size());
  const double attributed = busy(sum.sim_s) + busy(sum.workload_s) + busy(sum.ctrl_s) +
                            busy(sum.policy_s) + busy(sum.server_s) + busy(sum.stats_s);
  return {
      {"core.setup_s", setup, "s"},
      {"core.simulate_s", simulate, "s"},
      {"core.unattributed_frac", 1.0 - attributed, "ratio"},
      {"core.credit_adaptations", adaptations, "count"},
      {"core.congestion_signals", congestion, "count"},
      {"sim.events", events, "count"},
      {"sim.events_per_task", ratio(events, tasks), "events/task"},
      {"sim.events_per_s", ratio(events, simulate), "events/s"},
      {"sim.queue_ns_per_event", per(sum.sim_s, sum.events), "ns/event"},
      {"sim.busy_frac", busy(sum.sim_s), "ratio"},
      {"workload.ns_per_task", per(sum.workload_s, sum.tasks), "ns/task"},
      {"workload.busy_frac", busy(sum.workload_s), "ratio"},
      {"workload.requests_per_task",
       ratio(static_cast<double>(sum.requests), static_cast<double>(sum.tasks)), "requests/task"},
      {"workload.dataset_s", ratio(sum.dataset_s, cases), "s"},
      {"store.populate_s", ratio(sum.populate_s, cases), "s"},
      {"store.write_copies", writes, "count"},
      {"net.messages_per_task", ratio(messages, tasks), "messages/task"},
      {"net.bytes_per_task", ratio(bytes, tasks), "bytes/task"},
      {"ctrl.ns_per_request", per(sum.ctrl_s, sum.wire_requests), "ns/request"},
      {"ctrl.busy_frac", busy(sum.ctrl_s), "ratio"},
      {"ctrl.signal_evictions", evictions, "count"},
      {"ctrl.signal_entries_live", live, "count"},
      {"ctrl.dup_work_frac", ratio(duplicates_served, full_services), "ratio"},
      {"ctrl.hedge_win_frac", ratio(hedges_won, hedges_issued), "ratio"},
      {"policy.ns_per_task", per(sum.policy_s, sum.tasks), "ns/task"},
      {"policy.busy_frac", busy(sum.policy_s), "ratio"},
      {"server.ns_per_request", per(sum.server_s, sum.wire_requests), "ns/request"},
      {"server.busy_frac", busy(sum.server_s), "ratio"},
      {"server.utilization", ratio(utilization, static_cast<double>(traced.size())), "ratio"},
      {"client.credit_holds", holds, "count"},
      {"client.credit_hold_s_per_task", ratio(hold_s, tasks), "s/task"},
      {"stats.ns_per_record", per(sum.stats_s, sum.records), "ns/record"},
      {"stats.busy_frac", busy(sum.stats_s), "ratio"},
      {"trace.overhead_frac", ratio(wall, untraced_wall_s) - 1.0, "ratio"},
  };
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  std::string trace_path;
  std::string json_path;
  bool smoke = false;
};

/// The traced pass and the layer replays of one workload: appends the
/// traced pass's checks and returns the per-layer metrics.
std::vector<Metric> trace_workload(const Workload& workload,
                                   const std::vector<UnitRecord>& records,
                                   const std::string& digest, Tracer& tracer,
                                   std::vector<Check>& checks) {
  // Each traced run is paired with a warm untraced re-run of the same
  // unit, alternating which goes first, so trace.overhead_frac
  // compares like with like.
  double untraced_wall = 0.0;
  std::vector<TracedRun> traced;
  Digest traced_digest;
  const std::size_t pass_span = tracer.begin("pass:" + workload.name, Tracer::kNoParent,
                                             workload.name);
  for (const UnitRecord& r : records) {
    if (!r.ran) continue;
    const bool untraced_first = traced.size() % 2 == 0;
    core::RunResult untraced;
    if (untraced_first) untraced_wall += run_unit(*r.unit, untraced, nullptr, 0).wall_s;
    TracedRun t;
    t.unit = r.unit;
    t.timing = run_unit(*r.unit, t.result, &tracer, pass_span);
    if (!untraced_first) untraced_wall += run_unit(*r.unit, untraced, nullptr, 0).wall_s;
    traced_digest.add_run(r.unit->label, t.result);
    traced.push_back(std::move(t));
  }
  tracer.end(pass_span);
  checks.push_back({"determinism:traced", traced_digest.hex() == digest,
                    "the traced pass reproduces the untraced digest"});

  // Replays of every case at its first seed. Fidelity: the replayed
  // stream must be the run's own, so every mode that completes a
  // logical request once (all but k-of-n) reports one completion per
  // replayed wire request.
  std::vector<brb::perf::LayerReplay> replays;
  double replayed_simulate = 0.0;
  std::string mismatches;
  std::vector<std::string> replayed_labels;
  for (const TracedRun& t : traced) {
    const std::string& label = t.unit->label;
    if (std::find(replayed_labels.begin(), replayed_labels.end(), label) != replayed_labels.end()) {
      continue;
    }
    replayed_labels.push_back(label);
    const std::string id = unit_id(*t.unit);
    const std::size_t span = tracer.begin("replay:" + t.unit->label, Tracer::kNoParent, id);
    replays.push_back(brb::perf::replay_layers(t.unit->config, t.result, tracer, span, id));
    tracer.end(span);
    replayed_simulate += t.timing.simulate_s;
    const std::string& dispatch = t.unit->config.dispatch_spec;
    const bool countable = dispatch.empty() || brb::ctrl::parse_dispatch_mode(dispatch).mode !=
                                                   brb::ctrl::DispatchMode::kKofn;
    if (countable && replays.back().wire_requests != t.result.requests_completed) {
      mismatches += id + ": replayed " + std::to_string(replays.back().wire_requests) +
                    " vs run " + std::to_string(t.result.requests_completed) + "; ";
    }
  }
  checks.push_back({"replay_fidelity", mismatches.empty(),
                    mismatches.empty() ? "replayed streams match the runs' request counts"
                                       : mismatches});
  return per_layer(traced, replays, replayed_simulate, untraced_wall);
}

stats::Json metrics_json(const std::vector<Metric>& metrics) {
  stats::Json out = stats::Json::object();
  for (const Metric& m : metrics) {
    stats::Json entry = stats::Json::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    out[m.name] = std::move(entry);
  }
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << m.name << " " << std::setprecision(10) << m.value << " " << m.unit << "\n";
  }
}

/// Runs one workload; returns its JSON document. `correct` is cleared
/// when any check failed.
stats::Json run_workload(const Workload& workload, const Options& options, Tracer* tracer,
                         bool& correct) {
  const std::vector<Unit> units = expand(workload, options.seed, options.smoke);
  std::cout << "# workload " << workload.name << ": " << units.size() << " runs per pass, seed "
            << options.seed << (options.smoke ? ", smoke" : "") << "\n";

  // Untraced passes. Another pass starts only if it should finish
  // within --seconds; the first always runs.
  std::vector<UnitRecord> records(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) records[i].unit = &units[i];
  const auto measure_start = Clock::now();
  const std::string digest = run_pass(records, true);
  double last_pass_s = seconds_between(measure_start, Clock::now());
  std::size_t passes = 1;
  bool deterministic = true;
  while (tracer == nullptr && !options.smoke &&
         seconds_between(measure_start, Clock::now()) + last_pass_s <= options.seconds) {
    const auto pass_start = Clock::now();
    deterministic = deterministic && run_pass(records, false) == digest;
    last_pass_s = seconds_between(pass_start, Clock::now());
    ++passes;
  }
  std::vector<Check> checks = run_checks(workload, records);
  checks.push_back({"determinism", deterministic, "repeated passes reproduce the digest"});
  const std::vector<Metric> e2e = end_to_end(workload, records);
  const std::vector<Metric> layers =
      tracer == nullptr ? std::vector<Metric>{}
                        : trace_workload(workload, records, digest, *tracer, checks);

  // Verdict: any failed check fails every run it covers; a failed
  // determinism or fidelity check covers the whole workload.
  for (const Check& c : checks) {
    if (!c.ok && (c.name.rfind("determinism", 0) == 0 || c.name == "replay_fidelity")) {
      for (UnitRecord& r : records) r.failed = true;
    }
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const UnitRecord& r : records) {
    attempted += r.unit->config.num_tasks;
    if (r.failed) failed += r.unit->config.num_tasks;
    if (!r.error.empty()) checks.push_back({"run:" + unit_id(*r.unit), false, r.error});
  }
  const bool workload_correct =
      failed == 0 && std::all_of(checks.begin(), checks.end(), [](const Check& c) { return c.ok; });
  correct = correct && workload_correct;
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;

  for (const Check& c : checks) {
    std::cout << "check " << c.name << " " << (c.ok ? "ok" : "FAIL")
              << (c.detail.empty() ? "" : ": " + c.detail) << "\n";
  }
  std::cout << "sim_digest " << digest << "\n";
  std::cout << "passes " << passes << "\n";
  print_metrics(e2e);
  std::cout << "failed_frac " << failed_frac << " ratio\n";
  print_metrics(layers);

  stats::Json doc = stats::Json::object();
  doc["workload"] = workload.name;
  doc["seed"] = options.seed;
  doc["smoke"] = options.smoke;
  doc["traced"] = tracer != nullptr;
  doc["passes"] = passes;
  doc["correct"] = workload_correct;
  doc["attempted"] = attempted;
  doc["failed"] = failed;
  doc["failed_frac"] = failed_frac;
  doc["sim_digest"] = digest;
  stats::Json check_array = stats::Json::array();
  for (const Check& c : checks) {
    stats::Json j = stats::Json::object();
    j["name"] = c.name;
    j["ok"] = c.ok;
    j["detail"] = c.detail;
    check_array.push_back(std::move(j));
  }
  doc["checks"] = std::move(check_array);
  doc["end_to_end"] = metrics_json(e2e);
  if (tracer != nullptr) doc["per_layer"] = metrics_json(layers);
  stats::Json runs = stats::Json::array();
  for (const UnitRecord& r : records) {
    stats::Json j = stats::Json::object();
    j["label"] = r.unit->label;
    j["seed"] = r.unit->config.seed;
    j["ok"] = !r.failed;
    if (r.ran) j["p99_ms"] = r.out.p99_ms;
    stats::Json walls = stats::Json::array();
    stats::Json setups = stats::Json::array();
    stats::Json peaks = stats::Json::array();
    for (const Timing& t : r.timings) {
      walls.push_back(t.wall_s);
      setups.push_back(t.setup_s);
      peaks.push_back(t.peak_rss_mb);
    }
    j["wall_s"] = std::move(walls);
    j["setup_s"] = std::move(setups);
    j["peak_rss_mb"] = std::move(peaks);
    runs.push_back(std::move(j));
  }
  doc["runs"] = std::move(runs);
  return doc;
}

/// BRB_<FLAG> environment variables are defaults for every brbsim flag;
/// a workload is defined by its flag list alone, so drop them.
void scrub_flag_environment() {
  std::vector<std::string> names;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const char* entry = *env;
    if (std::strncmp(entry, "BRB_", 4) != 0) continue;
    const char* eq = std::strchr(entry, '=');
    names.emplace_back(entry, eq == nullptr ? std::strlen(entry)
                                            : static_cast<std::size_t>(eq - entry));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

void usage(std::ostream& os) {
  os << "usage: brb_perf --workload=NAME [--seed=S] [--seconds=N] [--trace=PATH] [--json=PATH]\n"
        "       brb_perf --smoke [--workload=NAME] [--trace=PATH] [--json=PATH]\n"
        "workloads:";
  for (const Workload& w : workloads()) os << " " << w.name;
  os << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  scrub_flag_environment();
  Options options;
  try {
    const brb::util::Flags flags(argc, argv);
    for (const std::string& name : flags.cli_names()) {
      if (name != "workload" && name != "seed" && name != "seconds" && name != "trace" &&
          name != "json" && name != "smoke" && name != "help") {
        throw std::invalid_argument("unknown flag --" + name);
      }
    }
    if (!flags.positional().empty()) {
      throw std::invalid_argument("unexpected argument " + flags.positional().front());
    }
    if (flags.get_bool("help", false)) {
      usage(std::cout);
      return 0;
    }
    options.workload = flags.get_string("workload", "");
    options.seed = flags.get_uint("seed", 1);
    options.seconds = flags.get_double("seconds", 0.0);
    options.trace_path = flags.get_string("trace", "");
    options.json_path = flags.get_string("json", "");
    options.smoke = flags.get_bool("smoke", false);
    if (options.workload.empty() && !options.smoke) {
      throw std::invalid_argument("--workload is required (or --smoke for every workload)");
    }
    if (!options.workload.empty() && find_workload(options.workload) == nullptr) {
      throw std::invalid_argument("unknown workload " + options.workload);
    }
    if (!(options.seconds >= 0.0)) throw std::invalid_argument("--seconds must be >= 0");
  } catch (const std::exception& e) {
    std::cerr << "brb_perf: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }

  std::vector<const Workload*> selected;
  if (!options.workload.empty()) {
    selected.push_back(find_workload(options.workload));
  } else {
    for (const Workload& w : workloads()) selected.push_back(&w);
  }

  bool correct = true;
  try {
    Tracer tracer;
    Tracer* trace = options.trace_path.empty() ? nullptr : &tracer;
    stats::Json results = stats::Json::array();
    for (const Workload* workload : selected) {
      results.push_back(run_workload(*workload, options, trace, correct));
    }
    if (trace != nullptr) {
      std::ofstream os(options.trace_path);
      tracer.to_chrome_json().dump(os, -1);
      os << "\n";
      if (!os) throw std::runtime_error("cannot write " + options.trace_path);
    }
    if (!options.json_path.empty()) {
      stats::Json doc = stats::Json::object();
      doc["workloads"] = std::move(results);
      std::ofstream os(options.json_path);
      doc.dump(os);
      os << "\n";
      if (!os) throw std::runtime_error("cannot write " + options.json_path);
    }
  } catch (const std::exception& e) {
    std::cerr << "brb_perf: " << e.what() << "\n";
    return 1;
  }
  return correct ? 0 : 1;
}
