// Synthetic task-stream generator (the SoundCloud-trace stand-in).
//
// Generates the keyspace (assigning each key a stable value size from
// the size distribution) and then an open-loop task stream: Poisson (or
// paced) arrivals, fan-out per task, distinct keys per task drawn from
// the popularity distribution, round-robin (or random) assignment of
// tasks to application servers.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"
#include "workload/arrival.hpp"
#include "workload/fanout_dist.hpp"
#include "workload/key_dist.hpp"
#include "workload/size_dist.hpp"
#include "workload/task.hpp"

namespace brb::workload {

/// Stable per-key value sizes for a generated keyspace. Sizes are drawn
/// once from the size distribution with a dedicated RNG stream, so the
/// same (seed, num_keys, distribution) triple always produces the same
/// dataset — across processes and across the systems under comparison.
class Dataset {
 public:
  Dataset(std::uint64_t num_keys, const SizeDistribution& sizes, util::Rng rng);

  std::uint32_t size_of(store::KeyId key) const;
  /// Every key's size, indexed by key.
  std::span<const std::uint32_t> sizes() const noexcept { return sizes_; }
  std::uint64_t num_keys() const noexcept { return sizes_.size(); }
  double mean_size() const noexcept { return mean_size_; }

 private:
  std::vector<std::uint32_t> sizes_;
  double mean_size_ = 0.0;
};

/// One tenant's traffic mix in a multi-tenant workload. Tenants split
/// the client fleet into contiguous blocks (proportional to share) and
/// each generated task draws its tenant by share weight, then uses
/// that tenant's distributions. Null distributions fall back to the
/// generator's base workload.
struct TenantMix {
  std::string name;
  /// Relative share of task arrivals (> 0; weights, not normalized).
  double share = 1.0;
  std::unique_ptr<FanoutDistribution> fanout;  // null = base fan-out
  std::unique_ptr<KeyDistribution> keys;       // null = base popularity
  /// Task-level write probability; < 0 inherits the generator's.
  double write_fraction = -1.0;
};

/// Parses a tenant mix spec: tenants separated by ';', each
///   NAME[,share=W][,fanout=SPEC][,keys=SPEC][,write=F]
/// e.g. "fg,share=0.7,fanout=fixed:2;bg,share=0.3,fanout=fixed:32,write=0.2".
/// Throws std::invalid_argument on malformed or duplicate entries.
std::vector<TenantMix> parse_tenant_mixes(const std::string& spec);

/// Partitions `num_clients` clients into contiguous per-tenant blocks
/// proportional to shares: one guaranteed client per tenant, the rest
/// split by largest remainder (deterministic, order-stable). Returns
/// the n+1 block boundaries. Shared by TaskGenerator::set_tenants and
/// the scenario runner's per-tenant policy binding, so the two can
/// never disagree about which client serves which tenant.
std::vector<std::uint32_t> tenant_client_blocks(const std::vector<TenantMix>& tenants,
                                                std::uint32_t num_clients);

class TaskGenerator {
 public:
  struct Config {
    std::uint32_t num_clients = 18;
    /// Tasks are assigned to clients round-robin when true, uniformly
    /// at random otherwise.
    bool round_robin_clients = true;
    /// Keys within one task are distinct (a playlist does not fetch
    /// the same track twice).
    bool distinct_keys = true;
  };

  TaskGenerator(Config config, const Dataset& dataset, const KeyDistribution& keys,
                const FanoutDistribution& fanout, std::unique_ptr<ArrivalProcess> arrivals,
                util::Rng rng);

  /// Enables write traffic: each task is a write task with probability
  /// `fraction`; write sizes are drawn from `sizes` (the new stored
  /// value). Must be called before the first next().
  void set_write_traffic(double fraction, const SizeDistribution* sizes);

  /// Enables multi-tenant generation. Clients are partitioned into
  /// contiguous blocks proportional to tenant shares (each tenant gets
  /// at least one client); tasks draw their tenant by share. Must be
  /// called before the first next().
  void set_tenants(std::vector<TenantMix> tenants);

  /// Produces the next task; arrival times are strictly increasing.
  /// Routed through the same block path as fill_block, so the two are
  /// structurally draw-for-draw identical.
  TaskSpec next();

  /// Appends up to `max_tasks` tasks into `block` (cleared first),
  /// storing all requests in the block's slab. This is the hot path:
  /// one allocation-free pass per block instead of one heap vector per
  /// task. The RNG stream is consumed in exactly the order of
  /// `max_tasks` successive next() calls (pinned by workload_test).
  void fill_block(TaskBlock& block, std::size_t max_tasks);

  /// Materializes `count` tasks (for traces and tests).
  std::vector<TaskSpec> generate(std::size_t count);

  std::uint64_t tasks_generated() const noexcept { return next_task_id_; }
  std::size_t num_tenants() const noexcept { return tenants_.size(); }
  const TenantMix& tenant(std::size_t i) const { return tenants_.at(i); }
  /// Client-id block [begin, end) owned by tenant i.
  std::pair<std::uint32_t, std::uint32_t> tenant_clients(std::size_t i) const;

 private:
  void append_task(TaskBlock& block);
  void append_requests(TaskBlock& block, const KeyDistribution& keys, bool is_write,
                       std::uint32_t fanout);

  Config config_;
  const Dataset* dataset_;
  const KeyDistribution* keys_;
  const FanoutDistribution* fanout_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  util::Rng rng_;
  sim::Time clock_ = sim::Time::zero();
  std::uint64_t next_task_id_ = 0;
  std::uint32_t next_client_ = 0;
  /// Write traffic (0 = read-only, the paper's workload).
  double write_fraction_ = 0.0;
  const SizeDistribution* write_sizes_ = nullptr;
  /// Multi-tenant state (empty = single-tenant).
  std::vector<TenantMix> tenants_;
  std::vector<double> tenant_cdf_;
  std::vector<std::uint32_t> tenant_client_begin_;  // size tenants+1
  std::vector<std::uint32_t> tenant_next_client_;
  /// Distinct-key membership bitmap, one bit per key, sized on demand
  /// to the largest keyspace seen (a tenant may have its own). All zero
  /// between tasks: each task clears the bits of the keys it took, so a
  /// task costs O(fan-out), not a pass over the keyspace.
  std::vector<std::uint64_t> taken_;
  /// One-task block backing next(); keeps next() and fill_block on a
  /// single code path.
  TaskBlock scratch_block_;
};

}  // namespace brb::workload
