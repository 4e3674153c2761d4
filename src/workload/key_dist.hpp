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

class KeyDistribution {
 public:
  virtual ~KeyDistribution() = default;

  /// Draws a key in [0, num_keys).
  virtual store::KeyId sample(util::Rng& rng) const = 0;

  virtual std::uint64_t num_keys() const noexcept = 0;
};

class UniformKeys final : public KeyDistribution {
 public:
  explicit UniformKeys(std::uint64_t num_keys);

  store::KeyId sample(util::Rng& rng) const override {
    return static_cast<store::KeyId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_) - 1));
  }
  std::uint64_t num_keys() const noexcept override { return n_; }

 private:
  std::uint64_t n_;
};

/// Zipf-popular keys. Rank r (1 = hottest) maps to key
/// scramble(r) so that hot keys scatter across partitions instead of
/// clustering in one group (scrambled-Zipfian, as in YCSB).
class ZipfKeys final : public KeyDistribution {
 public:
  ZipfKeys(std::uint64_t num_keys, double exponent);

  store::KeyId sample(util::Rng& rng) const override {
    const std::uint64_t rank = zipf_.sample(rng);  // 1-based
    // Scramble so popularity is uncorrelated with partition placement.
    return store::hash_key(rank - 1) % n_;
  }
  std::uint64_t num_keys() const noexcept override { return n_; }

 private:
  std::uint64_t n_;
  util::ZipfDistribution zipf_;
};

/// Parses "uniform:N" / "zipf:N:EXPONENT".
std::unique_ptr<KeyDistribution> make_key_distribution(const std::string& spec);

}  // namespace brb::workload
