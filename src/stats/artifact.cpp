#include "stats/artifact.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "stats/summary.hpp"

namespace brb::stats {

namespace {

Json summary_json(const Summary& summary) {
  Json j = Json::object();
  j["mean"] = summary.mean();
  j["stddev"] = summary.stddev();
  j["min"] = summary.min();
  j["max"] = summary.max();
  return j;
}

[[noreturn]] void merge_fail(const std::string& what) {
  throw std::runtime_error("merge_artifacts: " + what);
}

void validate_envelope(const Json& doc, const std::string& context) {
  const auto need = [&](const Json& parent, const char* key, Json::Kind kind) -> const Json& {
    static const char* const kKinds[] = {"null",     "a boolean", "an integer", "a number",
                                         "a string", "an array",  "an object"};
    const Json* value = parent.find(key);
    if (value == nullptr) {
      throw std::runtime_error(context + ": not a brbsim artifact (missing '" + key + "')");
    }
    if (value->kind() != kind) {
      throw std::runtime_error(context + ": '" + key + "' is not " +
                               kKinds[static_cast<int>(kind)]);
    }
    return *value;
  };
  if (!doc.is_object() || need(doc, "tool", Json::Kind::kString).as_string() != "brbsim") {
    throw std::runtime_error(context + ": not a brbsim artifact");
  }
  const std::int64_t format = need(doc, "format", Json::Kind::kInt).as_int();
  if (format != kArtifactFormat) {
    throw std::runtime_error(context + ": artifact format " + std::to_string(format) +
                             " (this build reads format " + std::to_string(kArtifactFormat) +
                             ")");
  }
  need(doc, "scenario", Json::Kind::kString);
  need(doc, "config", Json::Kind::kObject);
  need(doc, "seeds", Json::Kind::kArray);
  const Json& cases = need(doc, "cases", Json::Kind::kArray);
  const Json& timing = need(need(doc, "timing", Json::Kind::kObject), "cases", Json::Kind::kArray);
  if (timing.size() != cases.size()) {
    throw std::runtime_error(context + ": timing.cases has " + std::to_string(timing.size()) +
                             " entries for " + std::to_string(cases.size()) + " cases");
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string& label = need(cases.at(i), "label", Json::Kind::kString).as_string();
    if (need(timing.at(i), "wall_seconds", Json::Kind::kArray).size() !=
        need(cases.at(i), "runs", Json::Kind::kArray).size()) {
      throw std::runtime_error(context + ", case '" + label +
                               "': timing rows do not match runs");
    }
  }
}

/// The shard-invariant part of an artifact: everything except which
/// units ran here (runs, aggregates, timing) and the shard tag itself.
/// Every shard of one sweep must serialize this identically.
std::string plan_fingerprint(const Json& doc) {
  Json stripped = doc;
  stripped.erase("shard");
  stripped.erase("timing");
  Json& cases = stripped["cases"];
  for (std::size_t i = 0; i < cases.size(); ++i) {
    cases.at(i).erase("task_latency_ms");
    cases.at(i).erase("task_latency_sketch");
    cases.at(i).erase("runs");
  }
  return stripped.dump_string(-1);
}

}  // namespace

void set_case_runs(Json& item, Json runs) {
  Summary p50, p95, p99, mean;
  // Sketch merging is exact (integer bucket addition), so the pooled
  // block does not depend on which process ran each seed.
  std::optional<QuantileSketch> pooled;
  for (const Json& run : runs.items()) {
    p50.add(run.at("p50_ms").as_double());
    p95.add(run.at("p95_ms").as_double());
    p99.add(run.at("p99_ms").as_double());
    mean.add(run.at("mean_ms").as_double());
    if (const Json* block = run.find("task_latency_sketch")) {
      const QuantileSketch sketch = QuantileSketch::from_json(block->at("sketch"));
      if (pooled) {
        pooled->merge(sketch);
      } else {
        pooled = sketch;
      }
    }
  }
  Json latency = Json::object();
  latency["p50_ms"] = summary_json(p50);
  latency["p95_ms"] = summary_json(p95);
  latency["p99_ms"] = summary_json(p99);
  latency["mean_ms"] = summary_json(mean);
  item["task_latency_ms"] = std::move(latency);
  item["runs"] = std::move(runs);
  item.erase("task_latency_sketch");
  if (pooled && !pooled->empty()) item["task_latency_sketch"] = sketch_block_json(*pooled);
}

Json sketch_block_json(const QuantileSketch& sketch) {
  // Sketches record nanoseconds; artifacts report milliseconds.
  Json j = Json::object();
  j["count"] = sketch.count();
  j["p50_ms"] = sketch.percentile(50) / 1e6;
  j["p95_ms"] = sketch.percentile(95) / 1e6;
  j["p99_ms"] = sketch.percentile(99) / 1e6;
  j["p999_ms"] = sketch.percentile(99.9) / 1e6;
  j["sketch"] = sketch.to_json();
  return j;
}

Json read_artifact_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open artifact: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  Json doc;
  try {
    doc = Json::parse(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
  validate_envelope(doc, path);
  return doc;
}

Json merge_artifacts(const std::vector<Json>& shards) {
  if (shards.empty()) merge_fail("no artifacts to merge");
  for (std::size_t i = 0; i < shards.size(); ++i) {
    validate_envelope(shards[i], "artifact #" + std::to_string(i + 1));
  }
  const std::string fingerprint = plan_fingerprint(shards[0]);
  for (std::size_t i = 1; i < shards.size(); ++i) {
    if (plan_fingerprint(shards[i]) != fingerprint) {
      merge_fail("artifact #" + std::to_string(i + 1) +
                 " describes a different sweep (scenario/config/seeds/cases mismatch)");
    }
  }

  std::vector<std::int64_t> seed_order;
  for (const Json& seed : shards[0].at("seeds").items()) seed_order.push_back(seed.as_int());

  Json merged = shards[0];
  merged.erase("shard");
  Json& cases = merged["cases"];
  double total_wall_seconds = 0.0;
  Json timing_cases = Json::array();

  for (std::size_t case_index = 0; case_index < cases.size(); ++case_index) {
    // By value: set_case_runs below may reallocate the case object's
    // member storage.
    const std::string label = cases.at(case_index).at("label").as_string();
    // (seed -> (run row, wall seconds)), unioned across shards.
    std::map<std::int64_t, std::pair<Json, double>> by_seed;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const Json& runs = shards[i].at("cases").at(case_index).at("runs");
      const Json& walls = shards[i].at("timing").at("cases").at(case_index).at("wall_seconds");
      try {
        for (std::size_t j = 0; j < runs.size(); ++j) {
          const std::int64_t seed = runs.at(j).at("seed").as_int();
          const std::string which = "seed " + std::to_string(seed);
          if (std::find(seed_order.begin(), seed_order.end(), seed) == seed_order.end()) {
            throw std::runtime_error(which + " is not a planned seed");
          }
          if (!by_seed.emplace(seed, std::make_pair(runs.at(j), walls.at(j).as_double()))
                   .second) {
            throw std::runtime_error(which + " executed by more than one shard");
          }
        }
      } catch (const std::exception& e) {
        merge_fail("artifact #" + std::to_string(i + 1) + ", case '" + label + "': " + e.what());
      }
    }

    // Reassemble in planned seed order.
    Json runs = Json::array();
    Json walls = Json::array();
    for (const std::int64_t seed : seed_order) {
      const auto it = by_seed.find(seed);
      if (it == by_seed.end()) {
        merge_fail("case '" + label + "' seed " + std::to_string(seed) +
                   " missing from every shard");
      }
      // Wall seconds live in the timing subtree of the artifact, which the
      // identity gate drops; order-sensitivity here cannot affect identity.
      // brblint:allow(BRB-D03): wall timing, excluded from artifact identity
      total_wall_seconds += it->second.second;
      walls.push_back(it->second.second);
      runs.push_back(std::move(it->second.first));
    }
    try {
      set_case_runs(cases.at(case_index), std::move(runs));
    } catch (const std::exception& e) {
      merge_fail("case '" + label + "': " + e.what());
    }

    Json timing_case = Json::object();
    timing_case["label"] = label;
    timing_case["wall_seconds"] = std::move(walls);
    timing_cases.push_back(std::move(timing_case));
  }

  Json timing = Json::object();
  timing["total_wall_seconds"] = total_wall_seconds;
  // The fleet-wide peak is the worst single process: an RSS budget
  // must hold for every shard worker, not their (meaningless) sum.
  double peak_rss_mb = 0.0;
  bool have_rss = false;
  for (const Json& shard : shards) {
    if (const Json* rss = shard.at("timing").find("peak_rss_mb")) {
      peak_rss_mb = std::max(peak_rss_mb, rss->as_double());
      have_rss = true;
    }
  }
  if (have_rss) timing["peak_rss_mb"] = peak_rss_mb;
  timing["cases"] = std::move(timing_cases);
  merged["timing"] = std::move(timing);
  return merged;
}

void artifact_csv(std::ostream& os, const Json& artifact) {
  // Dispatch columns appear only when some run carries tail-cutting
  // metrics, so artifacts from single-target sweeps stay byte-identical
  // to pre-dispatch builds.
  bool dispatch_columns = false;
  for (const Json& item : artifact.at("cases").items()) {
    for (const Json& run : item.at("runs").items()) {
      if (run.find("duplicate_work_fraction") != nullptr) {
        dispatch_columns = true;
        break;
      }
    }
    if (dispatch_columns) break;
  }

  os << "scenario,label,system,seed,p50_ms,p95_ms,p99_ms,mean_ms,tasks_completed,"
        "requests_completed,write_requests,mean_utilization,congestion_signals,"
        "credit_hold_events,tenant_p99_ratio";
  if (dispatch_columns) {
    os << ",duplicate_work_fraction,hedges_issued,hedges_won,hedges_cancelled";
  }
  os << "\n";
  const std::string& scenario = artifact.at("scenario").as_string();
  for (const Json& item : artifact.at("cases").items()) {
    const std::string prefix = csv_field(scenario) + "," +
                               csv_field(item.at("label").as_string()) + "," +
                               item.at("system").as_string();
    for (const Json& run : item.at("runs").items()) {
      const Json* ratio = run.find("tenant_p99_ratio");
      os << prefix << "," << run.at("seed").as_int() << "," << run.at("p50_ms").as_double()
         << "," << run.at("p95_ms").as_double() << "," << run.at("p99_ms").as_double() << ","
         << run.at("mean_ms").as_double() << "," << run.at("tasks_completed").as_int() << ","
         << run.at("requests_completed").as_int() << "," << run.at("write_requests").as_int()
         << "," << run.at("mean_utilization").as_double() << ","
         << run.at("congestion_signals").as_int() << ","
         << run.at("credit_hold_events").as_int() << ","
         << (ratio != nullptr ? ratio->as_double() : 0.0);
      if (dispatch_columns) {
        const Json* dwf = run.find("duplicate_work_fraction");
        const Json* issued = run.find("hedges_issued");
        const Json* won = run.find("hedges_won");
        const Json* cancelled = run.find("hedges_cancelled");
        os << "," << (dwf != nullptr ? dwf->as_double() : 0.0) << ","
           << (issued != nullptr ? issued->as_int() : 0) << ","
           << (won != nullptr ? won->as_int() : 0) << ","
           << (cancelled != nullptr ? cancelled->as_int() : 0);
      }
      os << "\n";
    }
    // The cross-seed aggregate row (seed column = "all").
    const Json& latency = item.at("task_latency_ms");
    os << prefix << ",all," << latency.at("p50_ms").at("mean").as_double() << ","
       << latency.at("p95_ms").at("mean").as_double() << ","
       << latency.at("p99_ms").at("mean").as_double() << ","
       << latency.at("mean_ms").at("mean").as_double() << ",,,,,,,";
    if (dispatch_columns) os << ",,,,";
    os << "\n";
  }
}

}  // namespace brb::stats
