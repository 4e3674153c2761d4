// Key-popularity distributions over a fixed keyspace.
//
// The paper highlights "skewed workload patterns"; we model popularity
// with a Zipf law over the keyspace (uniform available as a control).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "store/partitioner.hpp"
#include "store/types.hpp"
#include "util/rng.hpp"

namespace brb::workload {

/// One popularity law over [0, num_keys), its kind fixed at
/// construction.
class KeyDistribution {
 public:
  static KeyDistribution uniform(std::uint64_t num_keys) {
    return KeyDistribution(Kind::kUniform, num_keys, 0.0);
  }
  /// Zipf-popular keys. Rank r (1 = hottest) maps to key scramble(r)
  /// so that hot keys scatter across partitions instead of clustering
  /// in one group (scrambled-Zipfian, as in YCSB).
  static KeyDistribution zipf(std::uint64_t num_keys, double exponent) {
    return KeyDistribution(Kind::kZipf, num_keys, exponent);
  }

  /// Draws a key in [0, num_keys).
  store::KeyId sample(util::Rng& rng) const {
    if (kind_ == Kind::kUniform) {
      return static_cast<store::KeyId>(rng.uniform_int(0, static_cast<std::int64_t>(n_) - 1));
    }
    const std::uint64_t rank = zipf_.sample(rng);  // 1-based
    // Scramble so popularity is uncorrelated with partition placement.
    return store::hash_key(rank - 1) % n_;
  }

  std::uint64_t num_keys() const noexcept { return n_; }

 private:
  enum class Kind { kUniform, kZipf };

  KeyDistribution(Kind kind, std::uint64_t num_keys, double exponent);

  Kind kind_;
  std::uint64_t n_;
  util::ZipfDistribution zipf_;  // kZipf only
};

/// Parses "uniform:N" / "zipf:N:EXPONENT".
std::unique_ptr<KeyDistribution> make_key_distribution(const std::string& spec);

}  // namespace brb::workload
