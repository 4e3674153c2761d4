#include "workload/key_dist.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/flags.hpp"

namespace brb::workload {

KeyDistribution::KeyDistribution(Kind kind, std::uint64_t num_keys, double exponent)
    // A uniform law never draws from zipf_; the max keeps an empty
    // keyspace to this constructor's own error.
    : kind_(kind), n_(num_keys), zipf_(exponent, std::max<std::uint64_t>(num_keys, 1)) {
  if (n_ == 0) throw std::invalid_argument("KeyDistribution: num_keys == 0");
}

namespace {
/// The largest key count a double holds exactly.
constexpr std::uint64_t kMaxKeys = std::uint64_t{1} << 53;
}  // namespace

std::unique_ptr<KeyDistribution> make_key_distribution(const std::string& spec) {
  const util::ModelSpec parts(spec, "make_key_distribution");
  const auto num_keys = [&] { return parts.count_or<std::uint64_t>(1, 100'000, kMaxKeys); };
  if (parts.name() == "uniform") {
    return std::make_unique<KeyDistribution>(KeyDistribution::uniform(num_keys()));
  }
  if (parts.name() == "zipf") {
    return std::make_unique<KeyDistribution>(
        KeyDistribution::zipf(num_keys(), parts.number_or(2, 0.9)));
  }
  throw std::invalid_argument("make_key_distribution: unknown kind: " + parts.name());
}

}  // namespace brb::workload
