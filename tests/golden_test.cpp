// Golden manifest check: runs one entry of ci/reference/golden.json in
// process and compares it with the digest and percentiles recorded
// there.
//
//   golden_test MANIFEST NAME
//
// An entry with "args" is a brbsim command line. Its optional "setup"
// command line (a `--record-trace`) runs first through
// cli::run_brbsim; then the args are planned and run serially through
// cli::execute_shard, exactly as brbsim runs them. The digest is the
// SHA-256 of the artifact without its "timing" object, serialized
// compactly (`dump_string(-1)`); each case's p50/p99 come from its
// `task_latency_ms` block. An entry without args is the Figure 1
// report: the digest of core::print_fig1_report's output.
//
// The computed entry is printed as one `actual: {...}` line, which
// ci/regenerate_golden.py reads back when re-baselining. Exits 1 on
// any mismatch.
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "cli/sweep_plan.hpp"
#include "core/fig1.hpp"
#include "stats/report.hpp"
#include "util/flags.hpp"

namespace {

using brb::stats::Json;

/// FIPS 180-4 SHA-256 of `text`, as 64 lowercase hex digits.
std::string sha256_hex(const std::string& text) {
  static constexpr std::array<std::uint32_t, 64> k = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
      0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
      0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
      0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
      0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
      0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
      0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
      0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
      0xc67178f2};
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::string data = text;
  const std::uint64_t bits = static_cast<std::uint64_t>(text.size()) * 8;
  data.push_back(static_cast<char>(0x80));
  while (data.size() % 64 != 56) data.push_back('\0');
  for (int shift = 56; shift >= 0; shift -= 8) data.push_back(static_cast<char>(bits >> shift));

  const auto rotr = [](std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); };
  for (std::size_t block = 0; block < data.size(); block += 64) {
    std::array<std::uint32_t, 64> w{};
    for (std::size_t i = 0; i < 16; ++i) {
      for (std::size_t b = 0; b < 4; ++b) {
        w[i] = (w[i] << 8) | static_cast<unsigned char>(data[block + 4 * i + b]);
      }
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::array<std::uint32_t, 8> v = h;
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
      const std::uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
      const std::uint32_t t1 = v[7] + s1 + ch + k[i] + w[i];
      const std::uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
      const std::uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
      for (std::size_t j = 7; j > 0; --j) v[j] = v[j - 1];
      v[4] += t1;
      v[0] = t1 + s0 + maj;
    }
    for (std::size_t i = 0; i < 8; ++i) h[i] += v[i];
  }
  std::string hex;
  for (const std::uint32_t word : h) {
    char buf[9];
    std::snprintf(buf, sizeof buf, "%08x", word);
    hex += buf;
  }
  return hex;
}

std::vector<std::string> strings_of(const Json& list) {
  std::vector<std::string> out;
  for (const Json& item : list.items()) out.push_back(item.as_string());
  return out;
}

/// A brbsim argv over `args`, which must outlive it.
std::vector<const char*> argv_of(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"brbsim"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return argv;
}

/// The entry as this build computes it: name, args, setup, digest and
/// (for scenario entries) every case's p50/p99.
Json compute(const Json& entry) {
  Json actual = Json::object();
  actual["name"] = entry.at("name").as_string();
  const Json* args = entry.find("args");
  if (args == nullptr) {
    std::ostringstream report;
    brb::core::print_fig1_report(report);
    actual["sha256"] = sha256_hex(report.str());
    return actual;
  }
  if (const Json* setup = entry.find("setup")) {
    const std::vector<std::string> setup_args = strings_of(*setup);
    const std::vector<const char*> argv = argv_of(setup_args);
    if (brb::cli::run_brbsim(static_cast<int>(argv.size()), argv.data()) != 0) {
      throw std::runtime_error("setup command failed");
    }
    actual["setup"] = *setup;
  }
  actual["args"] = *args;

  const std::vector<std::string> run_args = strings_of(*args);
  const std::vector<const char*> argv = argv_of(run_args);
  const brb::util::Flags flags(static_cast<int>(argv.size()), argv.data());
  brb::cli::validate_flags(flags);
  const brb::core::ScenarioConfig base = brb::cli::config_from_flags(flags);
  const brb::cli::SweepPlan plan =
      brb::cli::build_sweep_plan(flags.get_string("scenario", "paper"), base,
                                 brb::cli::seeds_from_flags(flags, 3), flags);
  Json doc = brb::cli::execute_shard(plan, nullptr, 1);
  doc.erase("timing");
  actual["sha256"] = sha256_hex(doc.dump_string(-1));

  Json cases = Json::array();
  for (const Json& item : doc.at("cases").items()) {
    const Json& latency = item.at("task_latency_ms");
    Json c = Json::object();
    c["label"] = item.at("label").as_string();
    c["p50_ms"] = latency.at("p50_ms").at("mean").as_double();
    c["p99_ms"] = latency.at("p99_ms").at("mean").as_double();
    cases.push_back(std::move(c));
  }
  actual["cases"] = std::move(cases);
  return actual;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: golden_test MANIFEST NAME\n";
    return 2;
  }
  try {
    std::ifstream in(argv[1]);
    std::stringstream text;
    text << in.rdbuf();
    if (!in) throw std::runtime_error(std::string("cannot read ") + argv[1]);
    const Json manifest = Json::parse(text.str());
    const Json* entry = nullptr;
    for (const Json& candidate : manifest.at("entries").items()) {
      if (candidate.at("name").as_string() == argv[2]) entry = &candidate;
    }
    if (entry == nullptr) throw std::runtime_error(std::string("no entry named ") + argv[2]);

    const Json actual = compute(*entry);
    std::cout << "actual: " << actual.dump_string(-1) << "\n";
    if (actual.dump_string(-1) != entry->dump_string(-1)) {
      std::cerr << "golden." << argv[2] << ": differs from " << argv[1] << "\nrecorded: "
                << entry->dump_string(-1)
                << "\nA deliberate change re-baselines with ci/regenerate_golden.py.\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "golden." << argv[2] << ": " << e.what() << "\n";
    return 1;
  }
}
