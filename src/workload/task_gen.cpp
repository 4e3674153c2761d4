#include "workload/task_gen.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/flags.hpp"

namespace brb::workload {

Dataset::Dataset(std::uint64_t num_keys, const SizeDistribution& sizes, util::Rng rng) {
  if (num_keys == 0) throw std::invalid_argument("Dataset: num_keys == 0");
  sizes_.reserve(num_keys);
  double acc = 0.0;
  for (std::uint64_t key = 0; key < num_keys; ++key) {
    sizes_.push_back(sizes.sample(rng));
    acc += sizes_.back();
  }
  mean_size_ = acc / static_cast<double>(num_keys);
}

std::uint32_t Dataset::size_of(store::KeyId key) const {
  if (key >= sizes_.size()) throw std::out_of_range("Dataset::size_of: key outside keyspace");
  return sizes_[static_cast<std::size_t>(key)];
}

std::vector<TenantMix> parse_tenant_mixes(const std::string& spec) {
  std::vector<TenantMix> tenants;
  std::stringstream tenant_stream(spec);
  for (std::string def; std::getline(tenant_stream, def, ';');) {
    if (def.empty()) continue;
    TenantMix mix;
    std::stringstream field_stream(def);
    bool first = true;
    for (std::string field; std::getline(field_stream, field, ',');) {
      if (field.empty()) continue;
      if (first) {
        if (field.find('=') != std::string::npos) {
          throw std::invalid_argument("parse_tenant_mixes: tenant def must start with a name: '" +
                                      def + "'");
        }
        mix.name = field;
        first = false;
        continue;
      }
      const auto eq = field.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("parse_tenant_mixes: expected key=value, got '" + field + "'");
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      const auto number = [&] { return util::parse_spec_number(value, spec); };
      if (key == "share") {
        mix.share = number();
      } else if (key == "fanout") {
        mix.fanout = make_fanout_distribution(value);
      } else if (key == "keys") {
        mix.keys = make_key_distribution(value);
      } else if (key == "write") {
        // Checked here, not after the loop: a negative value would pass
        // for the "inherit" sentinel below.
        mix.write_fraction = number();
        if (!(mix.write_fraction >= 0.0 && mix.write_fraction <= 1.0)) {
          throw std::invalid_argument("parse_tenant_mixes: tenant '" + mix.name +
                                      "' write fraction outside [0, 1]");
        }
      } else {
        throw std::invalid_argument("parse_tenant_mixes: unknown field '" + key + "'");
      }
    }
    if (mix.name.empty()) {
      throw std::invalid_argument("parse_tenant_mixes: tenant with empty name in '" + spec + "'");
    }
    if (mix.share <= 0.0) {
      throw std::invalid_argument("parse_tenant_mixes: tenant '" + mix.name +
                                  "' has non-positive share");
    }
    for (const TenantMix& existing : tenants) {
      if (existing.name == mix.name) {
        throw std::invalid_argument("parse_tenant_mixes: duplicate tenant '" + mix.name + "'");
      }
    }
    tenants.push_back(std::move(mix));
  }
  if (tenants.empty()) throw std::invalid_argument("parse_tenant_mixes: no tenants in spec");
  return tenants;
}

TaskGenerator::TaskGenerator(Config config, const Dataset& dataset, const KeyDistribution& keys,
                             const FanoutDistribution& fanout,
                             std::unique_ptr<ArrivalProcess> arrivals, util::Rng rng)
    : config_(config),
      dataset_(&dataset),
      keys_(&keys),
      fanout_(&fanout),
      arrivals_(std::move(arrivals)),
      rng_(rng) {
  if (config_.num_clients == 0) throw std::invalid_argument("TaskGenerator: no clients");
  if (keys_->num_keys() > dataset_->num_keys()) {
    throw std::invalid_argument("TaskGenerator: key distribution exceeds dataset keyspace");
  }
  if (!arrivals_) throw std::invalid_argument("TaskGenerator: null arrival process");
  scratch_block_.clear();
}

void TaskGenerator::set_write_traffic(double fraction, const SizeDistribution* sizes) {
  if (next_task_id_ != 0) {
    throw std::logic_error("TaskGenerator: write traffic must be set before generation");
  }
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("TaskGenerator: write fraction outside [0, 1]");
  }
  if (fraction > 0.0 && sizes == nullptr) {
    throw std::invalid_argument("TaskGenerator: write traffic needs a size distribution");
  }
  write_fraction_ = fraction;
  write_sizes_ = sizes;
}

void TaskGenerator::set_tenants(std::vector<TenantMix> tenants) {
  if (next_task_id_ != 0) {
    throw std::logic_error("TaskGenerator: tenants must be set before generation");
  }
  if (tenants.empty()) throw std::invalid_argument("TaskGenerator: empty tenant list");
  if (config_.num_clients < tenants.size()) {
    throw std::invalid_argument("TaskGenerator: fewer clients than tenants");
  }
  double total_share = 0.0;
  for (const TenantMix& mix : tenants) {
    if (mix.share <= 0.0) throw std::invalid_argument("TaskGenerator: non-positive tenant share");
    if (mix.keys && mix.keys->num_keys() > dataset_->num_keys()) {
      throw std::invalid_argument("TaskGenerator: tenant '" + mix.name +
                                  "' key distribution exceeds dataset keyspace");
    }
    if (mix.write_fraction > 0.0 && write_sizes_ == nullptr) {
      throw std::invalid_argument("TaskGenerator: tenant '" + mix.name +
                                  "' writes need set_write_traffic sizes");
    }
    total_share += mix.share;
  }

  // Arrival shares: cumulative distribution for the per-task draw.
  tenant_cdf_.clear();
  double acc = 0.0;
  for (const TenantMix& mix : tenants) {
    acc += mix.share / total_share;
    tenant_cdf_.push_back(acc);
  }
  tenant_cdf_.back() = 1.0;  // absorb rounding

  tenant_client_begin_ = tenant_client_blocks(tenants, config_.num_clients);
  tenant_next_client_.assign(tenants.size(), 0);
  tenants_ = std::move(tenants);
}

std::vector<std::uint32_t> tenant_client_blocks(const std::vector<TenantMix>& tenants,
                                                std::uint32_t num_clients) {
  if (tenants.empty()) throw std::invalid_argument("tenant_client_blocks: empty tenant list");
  if (num_clients < tenants.size()) {
    throw std::invalid_argument("tenant_client_blocks: fewer clients than tenants");
  }
  double total_share = 0.0;
  for (const TenantMix& mix : tenants) {
    if (mix.share <= 0.0) {
      throw std::invalid_argument("tenant_client_blocks: non-positive tenant share");
    }
    total_share += mix.share;
  }

  // One guaranteed client per tenant, the rest split proportionally by
  // largest remainder (deterministic, order-stable).
  const std::size_t n = tenants.size();
  std::vector<std::uint32_t> counts(n, 1);
  const std::uint32_t spare = num_clients - static_cast<std::uint32_t>(n);
  std::vector<double> fractional(n, 0.0);
  std::uint32_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double ideal = static_cast<double>(spare) * tenants[i].share / total_share;
    const auto whole = static_cast<std::uint32_t>(std::floor(ideal));
    counts[i] += whole;
    assigned += whole;
    fractional[i] = ideal - std::floor(ideal);
  }
  // Hand the leftover slots to the largest fractional parts. Sorting
  // once by (fractional desc, index asc) replaces the old O(n * spare)
  // repeated-argmax rescan and awards slots in the identical order: the
  // argmax used strict '>', so ties also resolved to the lowest index.
  const std::uint32_t left = spare - assigned;
  if (left > 0) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return fractional[a] > fractional[b];
    });
    for (std::uint32_t i = 0; i < left; ++i) ++counts[order[i]];
  }

  std::vector<std::uint32_t> begin(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) begin[i + 1] = begin[i] + counts[i];
  return begin;
}

std::pair<std::uint32_t, std::uint32_t> TaskGenerator::tenant_clients(std::size_t i) const {
  if (i >= tenants_.size()) throw std::out_of_range("TaskGenerator::tenant_clients");
  return {tenant_client_begin_[i], tenant_client_begin_[i + 1]};
}

void TaskGenerator::append_requests(TaskBlock& block, const KeyDistribution& keys, bool is_write,
                                    std::uint32_t fanout) {
  // A read's size hint is the current stored size (no RNG consumed); a
  // write's is the size being written, drawn fresh after its key.
  const auto push = [&](store::KeyId key) {
    if (is_write) {
      block.pool.push_back(RequestSpec{key, std::max(1u, write_sizes_->sample(rng_)), true});
    } else {
      block.pool.push_back(RequestSpec{key, dataset_->size_of(key), false});
    }
  };

  if (!config_.distinct_keys) {
    for (std::uint32_t i = 0; i < fanout; ++i) push(keys.sample(rng_));
    return;
  }

  // Distinct keys, by membership in taken_ (cleared from this task's own
  // requests before returning). Requests are emitted in sample order
  // (pinned by workload_test's DistinctKeyStreamIsPinned).
  const std::size_t words = static_cast<std::size_t>((keys.num_keys() + 63) / 64);
  if (taken_.size() < words) taken_.resize(words, 0);
  const std::size_t first = block.pool.size();
  std::uint32_t chosen = 0;
  const auto take = [&](store::KeyId key) {
    std::uint64_t& word = taken_[static_cast<std::size_t>(key >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (key & 63);
    if ((word & bit) != 0) return;
    word |= bit;
    push(key);
    ++chosen;
  };
  // The popularity distribution may not reach every key (scrambled
  // Zipf can collide), so bound the rejection loop and fill any
  // remainder by deterministic scan — only reachable with tiny
  // keyspaces (pinned by DistinctKeyFallbackScanIsPinned).
  std::uint64_t attempts = 0;
  const std::uint64_t max_attempts = 64ULL * fanout + 256;
  while (chosen < fanout && attempts++ < max_attempts) take(keys.sample(rng_));
  for (store::KeyId key = 0; chosen < fanout && key < keys.num_keys(); ++key) take(key);
  for (std::size_t i = first; i < block.pool.size(); ++i) {
    const store::KeyId key = block.pool[i].key;
    taken_[static_cast<std::size_t>(key >> 6)] &= ~(std::uint64_t{1} << (key & 63));
  }
}

void TaskGenerator::append_task(TaskBlock& block) {
  clock_ += arrivals_->next_gap(rng_);
  block.arrivals.push_back(clock_);
  block.ids.push_back(next_task_id_++);

  store::TenantId tenant{};
  store::ClientId client = 0;
  if (!tenants_.empty()) {
    const double u = rng_.uniform();
    std::size_t t = 0;
    while (t + 1 < tenant_cdf_.size() && u > tenant_cdf_[t]) ++t;
    tenant = store::TenantId{static_cast<std::uint32_t>(t)};
    const std::uint32_t begin = tenant_client_begin_[t];
    const std::uint32_t width = tenant_client_begin_[t + 1] - begin;
    if (config_.round_robin_clients) {
      client = begin + tenant_next_client_[t];
      tenant_next_client_[t] = (tenant_next_client_[t] + 1) % width;
    } else {
      client = begin + static_cast<store::ClientId>(
                           rng_.uniform_int(0, static_cast<std::int64_t>(width) - 1));
    }
  } else if (config_.round_robin_clients) {
    client = next_client_;
    next_client_ = (next_client_ + 1) % config_.num_clients;
  } else {
    client = static_cast<store::ClientId>(
        rng_.uniform_int(0, static_cast<std::int64_t>(config_.num_clients) - 1));
  }
  block.tenants.push_back(tenant);
  block.clients.push_back(client);

  const TenantMix* mix = tenants_.empty() ? nullptr : &tenants_[tenant.value()];

  // Task-level write decision: write tasks fan every request out to
  // all replicas, so mixing kinds within a task would blur the
  // asymmetry this knob exists to study. No RNG is consumed in the
  // read-only default, keeping legacy streams bit-identical.
  double write_fraction = write_fraction_;
  if (mix != nullptr && mix->write_fraction >= 0.0) write_fraction = mix->write_fraction;
  const bool is_write = write_fraction > 0.0 && rng_.uniform() < write_fraction;

  const KeyDistribution& keys = (mix != nullptr && mix->keys) ? *mix->keys : *keys_;

  std::uint32_t fanout =
      (mix != nullptr && mix->fanout) ? mix->fanout->sample(rng_) : fanout_->sample(rng_);
  // A task cannot request more distinct keys than the keyspace holds.
  if (config_.distinct_keys && fanout > keys.num_keys()) {
    fanout = static_cast<std::uint32_t>(keys.num_keys());
  }
  append_requests(block, keys, is_write, fanout);
  block.req_begin.push_back(static_cast<std::uint32_t>(block.pool.size()));
}

void TaskGenerator::fill_block(TaskBlock& block, std::size_t max_tasks) {
  block.clear();
  for (std::size_t i = 0; i < max_tasks; ++i) append_task(block);
}

TaskSpec TaskGenerator::next() {
  scratch_block_.clear();
  append_task(scratch_block_);
  return scratch_block_.view(0).to_spec();
}

std::vector<TaskSpec> TaskGenerator::generate(std::size_t count) {
  std::vector<TaskSpec> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) tasks.push_back(next());
  return tasks;
}

}  // namespace brb::workload
