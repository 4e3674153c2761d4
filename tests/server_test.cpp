// Tests for the backend-server substrate: service-time models, queue
// disciplines, the server itself, and validation against queueing
// theory (the simulator must match M/M/c analytics before Figure 2 can
// be trusted).
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <memory>
#include <variant>
#include <vector>

#include "server/backend_server.hpp"
#include "server/queue_discipline.hpp"
#include "server/service_model.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"
#include "workload/size_dist.hpp"
#include "deferred.hpp"

namespace brb::server {
namespace {

using sim::Duration;
using sim::Time;

// ---------------------------------------------------------------------------
// Service-time models

/// Exponential service time with a size-independent mean: turns each
/// server core into the M/M/1 station the queueing-theory oracles below
/// assume. No run builds it.
class ExponentialServiceModel final : public ServiceTimeModel {
 public:
  explicit ExponentialServiceModel(Duration mean) : mean_(mean) {}

  Duration sample(std::uint32_t, util::Rng& rng) const override {
    const double ns = rng.exponential(static_cast<double>(mean_.count_nanos()));
    return Duration::nanos(ns < 1.0 ? 1 : static_cast<std::int64_t>(ns));
  }
  Duration expected(std::uint32_t) const override { return mean_; }

 private:
  Duration mean_;
};

TEST(SizeLinearServiceModel, ExpectedIsAffineInSize) {
  SizeLinearServiceModel model(Duration::micros(10), 2.0);  // 2 ns per byte
  EXPECT_EQ(model.expected(0).count_nanos(), 10'000);
  EXPECT_EQ(model.expected(1000).count_nanos(), 12'000);
}

TEST(SizeLinearServiceModel, DeterministicWithoutNoise) {
  SizeLinearServiceModel model(Duration::micros(10), 2.0);
  util::Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(model.sample(500, rng).count_nanos(), model.expected(500).count_nanos());
  }
}

TEST(SizeLinearServiceModel, NoiseHasUnitMean) {
  SizeLinearServiceModel model(Duration::micros(100), 0.0, 0.5);
  util::Rng rng(2);
  stats::Summary s;
  for (int i = 0; i < 200000; ++i) {
    s.add(static_cast<double>(model.sample(1, rng).count_nanos()));
  }
  EXPECT_NEAR(s.mean(), 100'000.0, 1'500.0);
}

TEST(SizeLinearServiceModel, CalibrationHitsTargetRate) {
  // Paper: 3500 requests/s per core over the Atikoglu mean size.
  const double mean_size = 329.0;
  const auto model =
      SizeLinearServiceModel::calibrate(3500.0, mean_size, Duration::zero(), 0.0);
  EXPECT_NEAR(model.expected(static_cast<std::uint32_t>(mean_size)).as_seconds(), 1.0 / 3500.0,
              1e-6);
}

TEST(SizeLinearServiceModel, CalibrationRejectsImpossibleBase) {
  // Base overhead longer than the whole service budget cannot calibrate.
  EXPECT_THROW(SizeLinearServiceModel::calibrate(3500.0, 300.0, Duration::millis(1), 0.0),
               std::invalid_argument);
  EXPECT_THROW(SizeLinearServiceModel::calibrate(0.0, 300.0, Duration::zero(), 0.0),
               std::invalid_argument);
  EXPECT_THROW(SizeLinearServiceModel::calibrate(3500.0, 0.0, Duration::zero(), 0.0),
               std::invalid_argument);
}

TEST(SizeLinearServiceModel, RejectsDegenerateConstruction) {
  EXPECT_THROW(SizeLinearServiceModel(Duration::zero(), 0.0), std::invalid_argument);
  EXPECT_THROW(SizeLinearServiceModel(Duration::zero() - Duration::micros(1), 1.0),
               std::invalid_argument);
  EXPECT_THROW(SizeLinearServiceModel(Duration::micros(1), -1.0), std::invalid_argument);
}

TEST(ExponentialServiceModel, MeanAndMemorylessness) {
  ExponentialServiceModel model(Duration::micros(100));
  util::Rng rng(3);
  stats::Summary s;
  for (int i = 0; i < 200000; ++i) {
    s.add(static_cast<double>(model.sample(12345, rng).count_nanos()));
  }
  EXPECT_NEAR(s.mean(), 100'000.0, 1'500.0);
  EXPECT_NEAR(s.stddev() / s.mean(), 1.0, 0.02);  // CV = 1
  EXPECT_EQ(model.expected(1).count_nanos(), 100'000);
}

// ---------------------------------------------------------------------------
// Queue disciplines

QueuedRead make_read(store::Priority priority, store::RequestId id = 0,
                     std::uint64_t submit_seq = 0) {
  QueuedRead read;
  read.request.request_id = id;
  read.request.priority = priority;
  read.submit_seq = submit_seq;
  return read;
}

TEST(FifoDiscipline, PopsInsertionOrder) {
  FifoDiscipline q;
  q.push(make_read(5.0, 1));
  q.push(make_read(1.0, 2));
  q.push(make_read(3.0, 3));
  EXPECT_EQ(q.pop()->request.request_id, 1u);
  EXPECT_EQ(q.pop()->request.request_id, 2u);
  EXPECT_EQ(q.pop()->request.request_id, 3u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(FifoDiscipline, PeekReportsSubmitSeq) {
  FifoDiscipline q;
  q.push(make_read(9.0, 1, 17));
  const auto head = q.peek();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->priority, 0.0);
  EXPECT_EQ(head->submit_seq, 17u);
}

TEST(PriorityDiscipline, PopsLowestPriorityFirst) {
  PriorityDiscipline q;
  q.push(make_read(5.0, 1));
  q.push(make_read(1.0, 2));
  q.push(make_read(3.0, 3));
  EXPECT_EQ(q.pop()->request.request_id, 2u);
  EXPECT_EQ(q.pop()->request.request_id, 3u);
  EXPECT_EQ(q.pop()->request.request_id, 1u);
}

TEST(PriorityDiscipline, FifoWithinEqualPriority) {
  PriorityDiscipline q;
  for (store::RequestId id = 1; id <= 100; ++id) q.push(make_read(7.0, id));
  for (store::RequestId id = 1; id <= 100; ++id) {
    ASSERT_EQ(q.pop()->request.request_id, id);
  }
}

TEST(PriorityDiscipline, PeekMatchesPop) {
  PriorityDiscipline q;
  q.push(make_read(5.0, 1, 100));
  q.push(make_read(2.0, 2, 101));
  const auto head = q.peek();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->priority, 2.0);
  EXPECT_EQ(head->submit_seq, 101u);
  EXPECT_EQ(q.pop()->request.request_id, 2u);
}

TEST(PriorityDiscipline, RandomizedHeapProperty) {
  PriorityDiscipline q;
  util::Rng rng(5);
  for (int i = 0; i < 5000; ++i) q.push(make_read(rng.uniform()));
  double last = -1.0;
  while (auto read = q.pop()) {
    ASSERT_GE(read->request.priority, last);
    last = read->request.priority;
  }
}

TEST(FifoDiscipline, MatchesDequeThroughWrappedGrowth) {
  // Seeded differential fuzz against std::deque. Bursts of pushes after
  // partial drains make the ring grow while its window wraps (head not
  // at slot 0), the case where growth must unroll the window in order.
  // A mirror of the ring's geometry counts those growths, so the test
  // fails if the bursts ever stop reaching them. Once the ring reaches
  // 4096 slots it is drained and replaced by a fresh one.
  FifoDiscipline q;
  std::deque<QueuedRead> reference;
  util::Rng rng(31);
  std::uint64_t next_id = 0;
  std::size_t capacity = 0;  // mirror: 64 at the first push, then doubling
  std::size_t head_slot = 0;
  int wrapped_growths = 0;
  int fresh_rings = 0;
  std::uint64_t ops = 0;
  const auto push_one = [&] {
    if (reference.size() == capacity) {
      if (head_slot != 0) ++wrapped_growths;
      capacity = capacity == 0 ? 64 : capacity * 2;
      head_slot = 0;
    }
    QueuedRead read = make_read(rng.uniform(), next_id, next_id * 7 + 3);
    ++next_id;
    reference.push_back(read);
    q.push(std::move(read));
  };
  const auto pop_one = [&] {
    const std::optional<QueuedRead> got = q.pop();
    if (reference.empty()) {
      ASSERT_FALSE(got.has_value());
      return;
    }
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->request.request_id, reference.front().request.request_id);
    EXPECT_EQ(got->submit_seq, reference.front().submit_seq);
    reference.pop_front();
    head_slot = (head_slot + 1) % capacity;
  };
  while (ops < 200'000) {
    if (capacity >= 4096) {
      ops += reference.size();
      while (!reference.empty()) pop_one();
      ASSERT_FALSE(q.pop().has_value());
      q = FifoDiscipline{};
      capacity = 0;
      head_slot = 0;
      ++fresh_rings;
    }
    const double pick = rng.uniform();
    if (pick < 0.05) {
      // Burst: past the current capacity, so the ring must grow.
      const std::size_t burst = capacity - reference.size() + 1 +
                                static_cast<std::size_t>(rng.uniform_int(0, 40));
      for (std::size_t i = 0; i < burst; ++i) push_one();
      ops += burst;
    } else if (pick < 0.10) {
      // Partial drain: moves the head off slot 0 for the next burst.
      const auto drain = static_cast<std::size_t>(rng.uniform_int(0, 1 + reference.size() / 2));
      for (std::size_t i = 0; i < drain; ++i) pop_one();
      ops += drain;
    } else if (pick < 0.55) {
      push_one();
      ++ops;
    } else if (pick < 0.90) {
      pop_one();
      ++ops;
    } else {
      const std::optional<QueueHead> head = q.peek();
      ASSERT_EQ(head.has_value(), !reference.empty());
      if (head) {
        EXPECT_EQ(head->priority, 0.0);
        EXPECT_EQ(head->submit_seq, reference.front().submit_seq);
      }
      ++ops;
    }
    ASSERT_EQ(q.size(), reference.size());
  }
  while (!reference.empty()) pop_one();
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_GE(fresh_rings, 3);
  EXPECT_GE(wrapped_growths, 10);
}

TEST(QueueDiscipline, HelpersDispatchToTheHeldDiscipline) {
  QueueDiscipline fifo = make_discipline("fifo");
  QueueDiscipline priority = make_discipline("priority");
  for (QueueDiscipline* q : {&fifo, &priority}) {
    push(*q, make_read(5.0, 1, 10));
    push(*q, make_read(1.0, 2, 11));
    EXPECT_EQ(size(*q), 2u);
  }
  EXPECT_EQ(peek(fifo)->submit_seq, 10u);
  EXPECT_EQ(pop(fifo)->request.request_id, 1u);
  EXPECT_EQ(peek(priority)->submit_seq, 11u);
  EXPECT_EQ(pop(priority)->request.request_id, 2u);
  EXPECT_EQ(size(fifo), 1u);
  EXPECT_EQ(size(priority), 1u);
}

TEST(DisciplineFactory, KnownNames) {
  EXPECT_TRUE(std::holds_alternative<FifoDiscipline>(make_discipline("fifo")));
  EXPECT_TRUE(std::holds_alternative<PriorityDiscipline>(make_discipline("priority")));
  // Per-request SJF is the request-sjf priority policy on a priority
  // queue, not a discipline of its own.
  EXPECT_THROW(make_discipline("sjf"), std::invalid_argument);
  EXPECT_THROW(make_discipline("lifo"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BackendServer

struct ServerFixture {
  sim::Simulator simulator;
  SizeLinearServiceModel model{Duration::micros(100), 0.0};
  std::unique_ptr<BackendServer> server;
  std::vector<store::ReadResponse> responses;

  explicit ServerFixture(std::uint32_t cores) {
    BackendServer::Config config;
    config.id = 0;
    config.cores = cores;
    server = std::make_unique<BackendServer>(simulator, config, model, util::Rng(6));
    server->use_private_queue(make_discipline("fifo"));
    server->set_response_handler(
        [this](const store::ReadResponse& response) { responses.push_back(response); });
    server->storage().put_meta(1, 100);
  }

  store::ReadRequest request(store::RequestId id) {
    store::ReadRequest r;
    r.request_id = id;
    r.key = 1;
    return r;
  }
};

TEST(BackendServer, SingleCoreSerializes) {
  ServerFixture f(1);
  f.simulator.schedule_at(Time::zero(), [&] {
    f.server->receive(f.request(1));
    f.server->receive(f.request(2));
  });
  f.simulator.run();
  ASSERT_EQ(f.responses.size(), 2u);
  // Second request waits for the first: completes at 200us.
  EXPECT_EQ(f.simulator.now(), Time::micros(200));
}

TEST(BackendServer, MultiCoreServesInParallel) {
  ServerFixture f(4);
  f.simulator.schedule_at(Time::zero(), [&] {
    for (store::RequestId id = 1; id <= 4; ++id) f.server->receive(f.request(id));
  });
  f.simulator.run();
  ASSERT_EQ(f.responses.size(), 4u);
  EXPECT_EQ(f.simulator.now(), Time::micros(100));  // all in parallel
}

TEST(BackendServer, QueueLengthExcludesInService) {
  ServerFixture f(1);
  f.simulator.schedule_at(Time::zero(), [&] {
    f.server->receive(f.request(1));
    f.server->receive(f.request(2));
    f.server->receive(f.request(3));
    // One in service, two waiting.
    EXPECT_EQ(f.server->queue_length(), 2u);
    EXPECT_EQ(f.server->busy_cores(), 1u);
  });
  f.simulator.run();
}

TEST(BackendServer, FeedbackCarriesQueueAndRate) {
  ServerFixture f(1);
  f.simulator.schedule_at(Time::zero(), [&] {
    f.server->receive(f.request(1));
    f.server->receive(f.request(2));
  });
  f.simulator.run();
  ASSERT_EQ(f.responses.size(), 2u);
  // First response: one request still waiting.
  EXPECT_EQ(f.responses[0].feedback.queue_length, 1u);
  EXPECT_EQ(f.responses[1].feedback.queue_length, 0u);
  // Deterministic 100us service at 1 core -> 10k req/s.
  EXPECT_NEAR(f.responses[1].feedback.service_rate, 10'000.0, 2'500.0);
  EXPECT_EQ(f.responses[0].feedback.service_time.count_nanos(), 100'000);
}

TEST(BackendServer, StatsAccumulate) {
  ServerFixture f(2);
  f.simulator.schedule_at(Time::zero(), [&] {
    for (store::RequestId id = 1; id <= 6; ++id) f.server->receive(f.request(id));
  });
  f.simulator.run();
  EXPECT_EQ(f.server->stats().served, 6u);
  EXPECT_EQ(f.server->stats().busy_time.count_nanos(), 600'000);
}

TEST(BackendServer, MissingKeyServesMinimalValue) {
  testutil::Deferred later;
  ServerFixture f(1);
  store::ReadRequest r;
  r.request_id = 9;
  r.key = 404;  // not populated
  f.simulator.schedule_at(Time::zero(), later([&] { f.server->receive(r); }));
  f.simulator.run();
  ASSERT_EQ(f.responses.size(), 1u);
  EXPECT_EQ(f.responses[0].value_size, 1u);
}

TEST(BackendServer, WriteLandingMidServiceShowsInReadResponse) {
  testutil::Deferred later;
  // A read of a 100 kB value is in service on one core when a write
  // shrinks the value on the other. The write completes first, so the
  // read's response must report the new size, while its service time
  // still follows the size it started with.
  sim::Simulator simulator;
  SizeLinearServiceModel model(Duration::micros(1), 1.0);  // 1 us + 1 ns/byte
  BackendServer::Config config;
  config.cores = 2;
  BackendServer server(simulator, config, model, util::Rng(6));
  server.use_private_queue(make_discipline("fifo"));
  server.storage().put_meta(7, 100'000);
  std::vector<store::ReadResponse> responses;
  server.set_response_handler(
      [&responses](const store::ReadResponse& response) { responses.push_back(response); });

  store::ReadRequest read;
  read.request_id = 1;
  read.key = 7;
  store::ReadRequest write;
  write.request_id = 2;
  write.key = 7;
  write.is_write = true;
  write.write_size = 10;
  simulator.schedule_at(Time::zero(), later([&] { server.receive(read); }));
  simulator.schedule_at(Time::micros(10), later([&] { server.receive(write); }));
  simulator.run();

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].is_write);
  EXPECT_EQ(responses[1].request_id, 1u);
  EXPECT_EQ(responses[1].value_size, 10u);
  EXPECT_EQ(responses[1].feedback.service_time.count_nanos(), 101'000);
}

TEST(BackendServer, RejectsZeroCores) {
  sim::Simulator simulator;
  SizeLinearServiceModel model(Duration::micros(1), 0.0);
  BackendServer::Config config;
  config.cores = 0;
  EXPECT_THROW(BackendServer(simulator, config, model, util::Rng(7)), std::invalid_argument);
}

TEST(BackendServer, ReceiveWithoutQueueThrows) {
  sim::Simulator simulator;
  SizeLinearServiceModel model(Duration::micros(1), 0.0);
  BackendServer::Config config;
  config.cores = 1;
  BackendServer server(simulator, config, model, util::Rng(8));
  store::ReadRequest r;
  EXPECT_THROW(server.receive(r), std::logic_error);
}

// ---------------------------------------------------------------------------
// Queueing-theory validation: the server + Poisson arrivals must match
// M/M/1, M/M/c and M/D/1 analytic results.

struct QueueingHarness {
  sim::Simulator simulator;
  std::unique_ptr<BackendServer> server;
  stats::Summary sojourn_us;
  std::uint64_t completed = 0;
  testutil::Deferred later;

  QueueingHarness(std::uint32_t cores, const ServiceTimeModel& model) {
    BackendServer::Config config;
    config.cores = cores;
    server = std::make_unique<BackendServer>(simulator, config, model, util::Rng(9));
    server->use_private_queue(make_discipline("fifo"));
  }

  /// Runs `n` Poisson arrivals at `lambda` req/s; records sojourn times.
  void run(double lambda, std::uint64_t n) {
    std::unordered_map<store::RequestId, Time> admitted;
    server->set_response_handler([&](const store::ReadResponse& response) {
      sojourn_us.add((simulator.now() - admitted[response.request_id]).as_micros());
      ++completed;
    });
    util::Rng arrivals_rng(10);
    Time t = Time::zero();
    for (store::RequestId id = 0; id < n; ++id) {
      t += Duration::seconds(arrivals_rng.exponential(1.0 / lambda));
      admitted[id] = t;
      simulator.schedule_at(t, later([this, id] {
        store::ReadRequest request;
        request.request_id = id;
        request.key = 999;  // unpopulated: size 1
        server->receive(request);
      }));
    }
    simulator.run();
  }
};

TEST(QueueingTheory, MM1SojournMatchesAnalytic) {
  // M/M/1: E[T] = 1 / (mu - lambda). mu = 10k/s, lambda = 7k/s -> 333us.
  ExponentialServiceModel model(Duration::micros(100));
  QueueingHarness h(1, model);
  h.run(7000.0, 200'000);
  EXPECT_EQ(h.completed, 200'000u);
  EXPECT_NEAR(h.sojourn_us.mean(), 1e6 / (10'000.0 - 7'000.0), 15.0);
}

TEST(QueueingTheory, MD1WaitMatchesPollaczekKhinchine) {
  // M/D/1: E[W] = rho / (2 mu (1 - rho)); rho = 0.7, mu = 10k/s
  // -> E[W] = 116.7us, E[T] = W + 100us.
  SizeLinearServiceModel model(Duration::micros(100), 0.0);
  QueueingHarness h(1, model);
  h.run(7000.0, 200'000);
  const double rho = 0.7;
  const double mu = 10'000.0;
  const double wait_us = rho / (2.0 * mu * (1.0 - rho)) * 1e6;
  EXPECT_NEAR(h.sojourn_us.mean(), wait_us + 100.0, 8.0);
}

TEST(QueueingTheory, MMcSojournMatchesErlangC) {
  // M/M/4 with per-core mu = 2500/s (mean 400us), lambda = 7000/s
  // (rho = 0.7): Erlang-C waiting probability, then
  // E[W] = C / (c*mu - lambda), E[T] = E[W] + 1/mu.
  ExponentialServiceModel model(Duration::micros(400));
  QueueingHarness h(4, model);
  h.run(7000.0, 200'000);
  const double c = 4.0;
  const double mu = 2500.0;
  const double lambda = 7000.0;
  const double a = lambda / mu;  // offered load = 2.8 erlangs
  double sum = 0.0;
  double term = 1.0;
  for (int k = 0; k < 4; ++k) {
    if (k > 0) term *= a / k;
    sum += term;
  }
  const double a_c_over_cfact = term * a / c;  // a^c / c!
  const double rho = a / c;
  const double erlang_c = a_c_over_cfact / (1.0 - rho) / (sum + a_c_over_cfact / (1.0 - rho));
  const double expected_us = (erlang_c / (c * mu - lambda) + 1.0 / mu) * 1e6;
  EXPECT_NEAR(h.sojourn_us.mean(), expected_us, expected_us * 0.04);
}

TEST(QueueingTheory, MG1WaitMatchesPollaczekKhinchineForSizeDrivenService) {
  testutil::Deferred later;
  // The evaluation's actual service process: deterministic-in-size
  // times over Atikoglu generalized-Pareto value sizes. For M/G/1 FIFO,
  // E[W] = lambda E[S^2] / (2 (1 - rho)) (Pollaczek-Khinchine). We
  // estimate E[S], E[S^2] from the same dataset the server serves.
  util::Rng data_rng(41);
  const auto sizes = workload::SizeDistribution::generalized_pareto();
  const auto model = SizeLinearServiceModel::calibrate(3500.0, sizes.mean(), Duration::zero());

  // One-key-per-request workload with sizes drawn from the dataset.
  const std::uint64_t kKeys = 40'000;
  std::vector<std::uint32_t> key_sizes(kKeys);
  double s1 = 0.0;
  double s2 = 0.0;
  for (auto& size : key_sizes) {
    size = sizes.sample(data_rng);
    const double t = model.expected(size).as_seconds();
    s1 += t;
    s2 += t * t;
  }
  s1 /= static_cast<double>(kKeys);
  s2 /= static_cast<double>(kKeys);

  QueueingHarness h(1, model);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    h.server->storage().put_meta(k, key_sizes[k]);
  }
  // rho = 0.6 against the empirical mean service time.
  const double lambda = 0.6 / s1;
  std::unordered_map<store::RequestId, Time> admitted;
  stats::Summary wait_us;
  h.server->set_response_handler([&](const store::ReadResponse& response) {
    const double sojourn =
        (h.simulator.now() - admitted[response.request_id]).as_micros();
    const double service = response.feedback.service_time.as_micros();
    wait_us.add(sojourn - service);
  });
  util::Rng arrivals_rng(42);
  util::Rng key_rng(43);
  Time t = Time::zero();
  const std::uint64_t n = 150'000;
  for (store::RequestId id = 0; id < n; ++id) {
    t += Duration::seconds(arrivals_rng.exponential(1.0 / lambda));
    admitted[id] = t;
    const auto key = static_cast<store::KeyId>(
        key_rng.uniform_int(0, static_cast<std::int64_t>(kKeys) - 1));
    h.simulator.schedule_at(t, later([&h, id, key] {
      store::ReadRequest request;
      request.request_id = id;
      request.key = key;
      h.server->receive(request);
    }));
  }
  h.simulator.run();
  const double rho = lambda * s1;
  const double expected_wait_us = lambda * s2 / (2.0 * (1.0 - rho)) * 1e6;
  // Heavy-tailed E[S^2] converges slowly; 12% tolerance.
  EXPECT_NEAR(wait_us.mean(), expected_wait_us, expected_wait_us * 0.12);
}

TEST(QueueingTheory, UtilizationLawHolds) {
  // Served busy time / elapsed = rho on a single core.
  ExponentialServiceModel model(Duration::micros(100));
  QueueingHarness h(1, model);
  h.run(5000.0, 100'000);
  const double elapsed_sec = h.simulator.now().as_seconds();
  const double busy_sec = h.server->stats().busy_time.as_seconds();
  EXPECT_NEAR(busy_sec / elapsed_sec, 0.5, 0.02);
}

}  // namespace
}  // namespace brb::server
