// brbsim artifact schema: reading, merging, and the CSV projection.
//
// A brbsim JSON artifact (format 2) is the wire format of the sharded
// sweep subsystem. Top-level keys, in order:
//
//   tool      "brbsim"
//   format    2
//   scenario  registry scenario name
//   shard     "i/N"            (only present in a --shard partial run)
//   config    the flag-resolved base ScenarioConfig
//   seeds     the full planned seed list
//   cases     one entry per ExperimentCase: spec fields, cross-seed
//             task_latency_ms summaries, and per-seed "runs" rows
//             (deterministic fields only)
//   timing    wall-clock seconds, quarantined as the LAST key so
//             artifact diffs and byte-identity checks drop exactly one
//             top-level subtree instead of excluding fields everywhere
//
// Every case is built from its per-seed rows by `set_case_runs`: the
// driver calls it on the rows it just ran, and `merge_artifacts` on the
// rows it unioned from N shard artifacts, re-ordered by the planned
// seed order. Because doubles serialize with shortest-round-trip
// precision, the merged document is byte-identical to the unsharded
// one for any shard count (timing aside).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "stats/report.hpp"
#include "stats/sketch.hpp"

namespace brb::stats {

/// Artifact schema version emitted by this build.
inline constexpr int kArtifactFormat = 2;

/// Sets one case's results from its per-seed rows, in planned seed
/// order: "task_latency_ms" (the cross-seed {mean, stddev, min, max}
/// of each row's p50/p95/p99/mean), then "runs", then the
/// "task_latency_sketch" block pooled from the rows' sketches
/// (`--stats=sketch` runs only). Existing keys keep their position; the
/// sketch block is always the case's last key. The one place a case's
/// cross-seed statistics are computed.
void set_case_runs(Json& item, Json runs);

/// The "task_latency_sketch" block: quantiles in milliseconds plus the
/// serialized sketch itself. Throws std::logic_error on an empty
/// sketch.
Json sketch_block_json(const QuantileSketch& sketch);

/// Parses one artifact file and validates the envelope (tool, format,
/// scenario, config, seeds, cases and timing present with their types,
/// one timing row per case and run). Throws std::runtime_error with
/// the path on any problem.
Json read_artifact_file(const std::string& path);

/// Merges shard artifacts of one sweep into the single-process
/// document. Validates that every shard describes the same plan
/// (scenario, config, seeds, case specs), that each planned
/// (case, seed) unit was executed exactly once across the shards, and
/// rebuilds each case with `set_case_runs`. Throws std::runtime_error
/// on any inconsistency, naming the artifact and case.
Json merge_artifacts(const std::vector<Json>& shards);

/// The CSV projection of an artifact (one row per case x seed plus an
/// aggregate row per case). The driver and `brbsim merge` both emit
/// CSV through this, so sharded and unsharded CSV match byte for byte.
void artifact_csv(std::ostream& os, const Json& artifact);

}  // namespace brb::stats
