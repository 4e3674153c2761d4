// Heap footprint: what one run costs per client at fleet scale, where
// per-client state (the windowed SignalTable, the client row and its
// gate and endpoint) sets peak memory, and what the credits control
// loop allocates per message once warm. A counting global allocator
// measures the run's peak live heap and its allocation calls, so this
// suite is its own binary: the replacement operator new serves every
// test in it. Sanitizer runtimes bring their own allocator; under them
// the tests are skipped.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/scenario.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BRB_FOOTPRINT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define BRB_FOOTPRINT_SANITIZED 1
#endif
#endif

namespace {

/// Usable bytes of every live heap block, their high-water mark, and
/// the allocation calls made.
std::atomic<std::size_t> live_bytes{0};
std::atomic<std::size_t> peak_bytes{0};
std::atomic<std::size_t> allocations{0};

#ifndef BRB_FOOTPRINT_SANITIZED
void* counted_alloc(std::size_t size) {
  void* block = std::malloc(size == 0 ? 1 : size);
  if (block == nullptr) throw std::bad_alloc();
  allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t bytes = malloc_usable_size(block);
  const std::size_t live = live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::size_t peak = peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !peak_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return block;
}

void counted_free(void* block) noexcept {
  if (block == nullptr) return;
  live_bytes.fetch_sub(malloc_usable_size(block), std::memory_order_relaxed);
  std::free(block);
}
#endif

}  // namespace

#ifndef BRB_FOOTPRINT_SANITIZED
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* block) noexcept { counted_free(block); }
void operator delete[](void* block) noexcept { counted_free(block); }
void operator delete(void* block, std::size_t) noexcept { counted_free(block); }
void operator delete[](void* block, std::size_t) noexcept { counted_free(block); }
#endif

namespace brb {
namespace {

TEST(Footprint, SparseFleetPeakHeapPerClient) {
#ifdef BRB_FOOTPRINT_SANITIZED
  GTEST_SKIP() << "a sanitizer runtime owns the allocator";
#endif
  // The sparse-fleet shape at 20k clients: policy-shootout's
  // two-choices case on 1000 servers. 20M client x server pairs is past
  // the auto threshold, so every client holds a windowed table.
  core::ScenarioConfig config;
  config.system = core::SystemKind::kFifoDirect;
  config.policy_spec = "two-choices";
  config.cluster.num_servers = 1000;
  config.num_clients = 20'000;
  config.num_tasks = 4'000;
  config.key_spec = "uniform:100000";
  config.stats_spec = "sketch";

  const std::size_t before = live_bytes.load();
  peak_bytes.store(before);
  const core::RunResult run = core::run_scenario(config);
  const double per_client =
      static_cast<double>(peak_bytes.load() - before) / static_cast<double>(config.num_clients);
  ASSERT_TRUE(run.sparse_signal_store);
  ASSERT_EQ(run.tasks_completed, config.num_tasks);

  // Measured at 1,142 bytes per client (gcc 12, x86-64 glibc). With
  // 80-byte signal entries, a heap-held gate, endpoint and policy per
  // client, and per-client hook and transport closures, it was 1,490.
  // The bound is the measurement plus 10%.
  constexpr double kMeasuredBytes = 1142.0;
  RecordProperty("peak_heap_bytes_per_client", static_cast<int>(per_client));
  EXPECT_LE(per_client, kMeasuredBytes * 1.1) << "peak live heap per client grew";
}

TEST(Footprint, CreditsControlMessagesAllocateNothingOnceWarm) {
#ifdef BRB_FOOTPRINT_SANITIZED
  GTEST_SKIP() << "a sanitizer runtime owns the allocator";
#endif
  // The paper fleet under the credits gate at a trickle of load: every
  // client reports its pinned demand every 100 ms and receives a grant
  // every second, so control messages outnumber the task traffic by
  // far. Each report and grant carries a credit list; in the message
  // pool those lists reuse their capacity, so the window between two
  // late task completions allocates almost nothing.
  core::ScenarioConfig config;
  config.system = core::SystemKind::kEqualMaxCredits;
  config.num_tasks = 300;
  config.utilization = 0.0002;
  config.fanout_spec = "fixed:2";

  struct Mark {
    std::size_t allocations = 0;
    double at_s = 0.0;
  };
  std::vector<Mark> marks;
  marks.reserve(config.num_tasks);
  config.on_task_complete = [&marks](const workload::TaskSpec& task, sim::Duration latency) {
    marks.push_back({allocations.load(), (task.arrival + latency).as_seconds()});
  };
  const core::RunResult run = core::run_scenario(config);
  ASSERT_EQ(run.tasks_completed, config.num_tasks);

  const Mark& first = marks[100];
  const Mark& last = marks[250];
  const double window_s = last.at_s - first.at_s;
  ASSERT_GT(window_s, 5.0);
  // Every client reports every measurement interval (its pairs are
  // pinned), so the window carries at least this many reports.
  const double reports = static_cast<double>(config.num_clients) * window_s /
                         config.credits.measure_interval.as_seconds();
  const auto allocated = static_cast<double>(last.allocations - first.allocations);
  RecordProperty("allocations_in_window", static_cast<int>(allocated));
  RecordProperty("reports_in_window", static_cast<int>(reports));
  EXPECT_LT(allocated, reports / 20) << "control messages allocate per message";
}

}  // namespace
}  // namespace brb
