#include "workload/key_dist.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "store/partitioner.hpp"
#include "util/flags.hpp"

namespace brb::workload {

UniformKeys::UniformKeys(std::uint64_t num_keys) : n_(num_keys) {
  if (n_ == 0) throw std::invalid_argument("UniformKeys: num_keys == 0");
}

ZipfKeys::ZipfKeys(std::uint64_t num_keys, double exponent)
    : n_(num_keys), zipf_(exponent, num_keys) {
  if (n_ == 0) throw std::invalid_argument("ZipfKeys: num_keys == 0");
}

namespace {
/// The largest key count a double holds exactly.
constexpr std::uint64_t kMaxKeys = std::uint64_t{1} << 53;
}  // namespace

std::unique_ptr<KeyDistribution> make_key_distribution(const std::string& spec) {
  std::vector<std::string> parts;
  std::stringstream ss(spec);
  for (std::string item; std::getline(ss, item, ':');) parts.push_back(item);
  if (parts.empty()) throw std::invalid_argument("make_key_distribution: empty spec");
  const auto arg = [&](std::size_t i, double fallback) {
    return parts.size() > i ? util::parse_spec_number(parts[i], spec) : fallback;
  };
  const auto num_keys = [&] {
    return parts.size() > 1 ? util::parse_spec_count(parts[1], spec, kMaxKeys) : 100'000;
  };
  if (parts[0] == "uniform") return std::make_unique<UniformKeys>(num_keys());
  if (parts[0] == "zipf") return std::make_unique<ZipfKeys>(num_keys(), arg(2, 0.9));
  throw std::invalid_argument("make_key_distribution: unknown kind: " + parts[0]);
}

}  // namespace brb::workload
