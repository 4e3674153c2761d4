// brblint self-test fixture: BRB-R01 must fire on a thread-worker
// lambda mutating by-reference captured state with no synchronization —
// including mutation hidden behind scheduler entry points (push/cancel
// relink intrusive wheel slot lists even though no assignment operator
// appears in the lambda body) and behind the DispatchPlan executor
// callbacks (dispatch_plan/issue_copy/hedge_fire and the
// DispatchEndpoint on_send/on_response/on_cancel feedback hooks, which
// rewrite per-request slot state and SignalTable accounting) and behind
// the workload block entry point (fill_block advances the shared
// generator's RNG stream and rewrites the TaskBlock slab), and behind
// the event record API (post_at relinks the wheel; the message pool's
// alloc/free rewrite its free list).
// expect: BRB-R01=5
#include <cstdint>
#include <thread>
#include <vector>

namespace fixture {

std::uint64_t race() {
  std::uint64_t hits = 0;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      hits += 1;  // unsynchronized read-modify-write
    });
  }
  for (auto& worker : workers) worker.join();
  return hits;
}

struct FakeQueue {
  void push(std::uint64_t when);
  void cancel(std::uint64_t id);
};

void race_through_scheduler(FakeQueue& queue) {
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      queue.push(static_cast<std::uint64_t>(w));  // mutates slot lists inside
    });
  }
  for (auto& worker : workers) worker.join();
}

struct FakeEndpoint {
  void on_cancel(std::uint32_t target, double expected_cost);
};

void race_through_dispatch_executor(FakeEndpoint& endpoint) {
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      endpoint.on_cancel(static_cast<std::uint32_t>(w), 1.0);  // SignalTable accounting inside
    });
  }
  for (auto& worker : workers) worker.join();
}

struct FakeGenerator {
  void fill_block(int& block, std::uint64_t max_tasks);
};

void race_through_batch_generation(FakeGenerator& gen, int& block) {
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      gen.fill_block(block, 256);  // advances shared RNG + rewrites the slab
    });
  }
  for (auto& worker : workers) worker.join();
}

struct FakeMessagePool {
  std::uint32_t alloc();
  void free(std::uint32_t slot);
};

void race_through_message_pool(FakeMessagePool& pool) {
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      pool.free(pool.alloc());  // pops and pushes the shared free list
    });
  }
  for (auto& worker : workers) worker.join();
}

}  // namespace fixture
