#include "util/rng.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace brb::util {

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
  SplitMix64 mixer(seed);
  for (auto& word : s_) word = mixer.next();
  // An all-zero state is the one invalid state; SplitMix64 cannot emit
  // four consecutive zeros, but guard anyway for defence in depth.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

void Xoshiro256StarStar::long_jump_reference() noexcept {
  static constexpr std::array<std::uint64_t, 4> kLongJump = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  State acc{};
  for (const std::uint64_t jump : kLongJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s_[i];
      }
      (void)next();
    }
  }
  s_ = acc;
}

namespace {

/// columns[p][v]: the long jump of the state whose only set bits are
/// the value `v` in 4-bit group `p` (bits 4p..4p+3, word p / 16).
struct LongJumpTable {
  std::array<std::array<Xoshiro256StarStar::State, 16>, 64> columns;
};

const LongJumpTable& long_jump_table() noexcept {
  static const LongJumpTable table = [] {
    LongJumpTable t{};
    for (std::size_t group = 0; group < 64; ++group) {
      for (std::size_t b = 0; b < 4; ++b) {
        const std::size_t bit = 4 * group + b;
        Xoshiro256StarStar::State unit{};
        unit[bit / 64] = std::uint64_t{1} << (bit % 64);
        Xoshiro256StarStar gen(unit);
        gen.long_jump_reference();
        t.columns[group][std::size_t{1} << b] = gen.state();
      }
      // Linearity: the jump of v is the XOR of the jumps of its bits.
      for (std::size_t v = 3; v < 16; ++v) {
        const std::size_t low = v & (0 - v);
        if (low == v) continue;  // single bit, filled above
        for (std::size_t i = 0; i < 4; ++i) {
          t.columns[group][v][i] = t.columns[group][v - low][i] ^ t.columns[group][low][i];
        }
      }
    }
    return t;
  }();
  return table;
}

}  // namespace

void Xoshiro256StarStar::long_jump() noexcept {
  const LongJumpTable& table = long_jump_table();
  State acc{};
  for (std::size_t group = 0; group < 64; ++group) {
    const State& column = table.columns[group][(s_[group / 16] >> (4 * (group % 16))) & 15];
    for (std::size_t i = 0; i < 4; ++i) acc[i] ^= column[i];
  }
  s_ = acc;
}

Rng Rng::split() noexcept {
  const std::uint64_t child_seed = gen_.next();
  gen_.long_jump();
  return Rng(child_seed);
}

ZipfDistribution::ZipfDistribution(double exponent, std::uint64_t num_elements)
    : s_(exponent), n_(num_elements) {
  if (num_elements == 0) {
    throw std::invalid_argument("ZipfDistribution: num_elements == 0");
  }
  if (exponent < 0.0) {
    throw std::invalid_argument("ZipfDistribution: exponent < 0");
  }
  h_x1_ = h(1.5) - 1.0;
  h_n_ = h(static_cast<double>(n_) + 0.5);
  // Squeeze (Hoermann & Derflinger): a candidate with
  // k - x <= 2 - H^-1(H(2.5) - h(2)) passes the exact test too. At
  // k = 2 (and at every k as the exponent nears 0) both tests flip at
  // the same x, so the squeeze gives up a margin wider than the
  // rounding error of x and of the exact test (about n * 2^-52 at the
  // largest ranks): every draw returns what the exact test alone would.
  const double margin = std::max(1e-9, 1e-15 * static_cast<double>(n_));
  cut_ = 2.0 - h_inv(h(2.5) - std::pow(2.0, -s_)) - margin;
}

}  // namespace brb::util
