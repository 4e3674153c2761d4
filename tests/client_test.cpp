// Tests for the application-server client: task splitting, planning,
// dispatch gates, in-flight tracking, completion semantics.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/app_client.hpp"
#include "client/dispatch_gate.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "policy/priority_policy.hpp"
#include "server/service_model.hpp"
#include "sim/simulator.hpp"
#include "store/partitioner.hpp"
#include "util/rng.hpp"
#include "deferred.hpp"

namespace brb::client {
namespace {

using sim::Duration;
using sim::Time;

/// Single-mode endpoint over one replica rule.
ctrl::DispatchEndpoint single_endpoint(const std::string& rule) {
  return ctrl::DispatchEndpoint(
      ctrl::SignalTableConfig{},
      *ctrl::make_dispatch_policy(rule, {}, {}, false, Duration::millis(1), util::Rng(99)),
      util::Rng(99), store::TenantId{0});
}

/// Captures outbound traffic instead of a network.
struct ClientFixture {
  sim::Simulator simulator;
  store::RingPartitioner partitioner{3, 2};
  server::SizeLinearServiceModel cost_model{Duration::zero(), 1000.0};  // 1us/byte
  std::unique_ptr<policy::PriorityPolicy> policy;
  RequestBook book;
  std::unique_ptr<AppClient> client;
  std::vector<OutboundRequest> sent;
  std::vector<std::pair<store::TaskId, Duration>> completed_tasks;
  std::vector<Duration> completed_requests;
  AppClient::NetworkSendFn capture = [this](const OutboundRequest& out) { sent.push_back(out); };
  AppClient::Hooks hooks;

  explicit ClientFixture(const std::string& policy_name, AppClient::Config config = {})
      : policy(policy::make_priority_policy(policy_name)) {
    client = std::make_unique<AppClient>(
        simulator, config, partitioner, cost_model,
        single_endpoint("first"), *policy,
        DispatchGate(), util::Rng(1), book);
    client->set_network_send(&capture);
    hooks.on_task_complete = [this](const workload::TaskSpec& task, Duration latency) {
      completed_tasks.emplace_back(task.id, latency);
    };
    hooks.on_request_complete = [this](Duration latency) {
      completed_requests.push_back(latency);
    };
    client->set_hooks(&hooks);
  }

  workload::TaskSpec task(store::TaskId id, std::vector<store::KeyId> keys,
                          std::uint32_t size = 100) {
    workload::TaskSpec spec;
    spec.id = id;
    spec.client = 0;
    for (const store::KeyId key : keys) spec.requests.push_back({key, size});
    return spec;
  }

  store::ReadResponse response_for(const OutboundRequest& out) {
    store::ReadResponse response;
    response.request_id = out.request.request_id;
    response.task_id = out.request.task_id;
    response.key = out.request.key;
    response.client = out.request.client;
    response.server = out.server;
    response.value_size = 100;
    return response;
  }
};

TEST(AppClient, SplitsTaskIntoPerGroupSubtasks) {
  ClientFixture f("equalmax");
  f.simulator.schedule_at(Time::zero(), [&] {
    f.client->submit(f.task(1, {0, 1, 2, 3, 4, 5, 6, 7}));
  });
  f.simulator.run();
  ASSERT_EQ(f.sent.size(), 8u);
  // Every request was routed to a replica of its key's group.
  for (const auto& out : f.sent) {
    const auto group = f.partitioner.group_of(out.request.key);
    EXPECT_EQ(out.group, group);
    const auto& replicas = f.partitioner.replicas_of(group);
    EXPECT_NE(std::find(replicas.begin(), replicas.end(), out.server), replicas.end());
  }
}

TEST(AppClient, SubtaskRequestsShareOneServer) {
  ClientFixture f("equalmax");
  f.simulator.schedule_at(Time::zero(), [&] {
    f.client->submit(f.task(1, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  });
  f.simulator.run();
  std::map<store::GroupId, store::ServerId> chosen;
  for (const auto& out : f.sent) {
    const auto [it, inserted] = chosen.emplace(out.group, out.server);
    if (!inserted) {
      EXPECT_EQ(it->second, out.server) << "sub-task split across servers";
    }
  }
}

TEST(AppClient, EqualMaxStampsBottleneckOnEveryRequest) {
  testutil::Deferred later;
  ClientFixture f("equalmax");
  // Keys chosen so that one group receives two requests: bottleneck =
  // sum of that group's costs. All sizes 100 bytes -> 100us each.
  std::vector<store::KeyId> keys;
  std::map<store::GroupId, int> group_counts;
  for (store::KeyId k = 0; keys.size() < 3; ++k) {
    const auto g = f.partitioner.group_of(k);
    if (group_counts[g] < 2) {
      keys.push_back(k);
      ++group_counts[g];
    }
  }
  f.simulator.schedule_at(Time::zero(), later([&] { f.client->submit(f.task(1, keys)); }));
  f.simulator.run();
  ASSERT_EQ(f.sent.size(), 3u);
  int max_group_requests = 0;
  for (const auto& [g, c] : group_counts) max_group_requests = std::max(max_group_requests, c);
  const double expected_priority = 100'000.0 * max_group_requests;
  for (const auto& out : f.sent) {
    EXPECT_DOUBLE_EQ(out.request.priority, expected_priority);
  }
}

TEST(AppClient, UnifIncrSlackMatchesBottleneckStructure) {
  ClientFixture f("unifincr");
  f.simulator.schedule_at(Time::zero(), [&] { f.client->submit(f.task(1, {0, 1, 2, 3, 4})); });
  f.simulator.run();
  // All requests cost 100us; the bottleneck sub-task holds the largest
  // group, so the minimum slack is (bottleneck_count - 1) * 100us —
  // slack is measured against a request's *individual* cost (paper 2.1).
  std::map<store::GroupId, int> group_counts;
  for (const auto& out : f.sent) ++group_counts[out.group];
  int bottleneck_count = 0;
  for (const auto& [g, c] : group_counts) bottleneck_count = std::max(bottleneck_count, c);
  double min_priority = 1e18;
  for (const auto& out : f.sent) min_priority = std::min(min_priority, out.request.priority);
  EXPECT_DOUBLE_EQ(min_priority, (bottleneck_count - 1) * 100'000.0);
}

TEST(AppClient, TaskCompletesOnlyAfterLastResponse) {
  ClientFixture f("equalmax");
  f.simulator.schedule_at(Time::zero(), [&] { f.client->submit(f.task(7, {0, 1, 2})); });
  f.simulator.run();
  ASSERT_EQ(f.sent.size(), 3u);
  f.simulator.schedule_at(Time::micros(100), [&] {
    f.client->on_response(f.response_for(f.sent[0]));
    f.client->on_response(f.response_for(f.sent[1]));
  });
  f.simulator.run();
  EXPECT_TRUE(f.completed_tasks.empty());
  EXPECT_EQ(f.client->in_flight(), 1u);
  f.simulator.schedule_at(Time::micros(250), [&] {
    f.client->on_response(f.response_for(f.sent[2]));
  });
  f.simulator.run();
  ASSERT_EQ(f.completed_tasks.size(), 1u);
  EXPECT_EQ(f.completed_tasks[0].first, 7u);
  EXPECT_EQ(f.completed_tasks[0].second.count_nanos(), Duration::micros(250).count_nanos());
  EXPECT_EQ(f.completed_requests.size(), 3u);
}

TEST(AppClient, StatsTrackLifecycle) {
  ClientFixture f("equalmax");
  f.simulator.schedule_at(Time::zero(), [&] { f.client->submit(f.task(1, {0, 1})); });
  f.simulator.run();
  EXPECT_EQ(f.client->stats().tasks_submitted, 1u);
  EXPECT_EQ(f.client->stats().requests_sent, 2u);
  f.simulator.schedule_at(Time::micros(10), [&] {
    for (const auto& out : f.sent) f.client->on_response(f.response_for(out));
  });
  f.simulator.run();
  EXPECT_EQ(f.client->stats().responses_received, 2u);
  EXPECT_EQ(f.client->stats().tasks_completed, 1u);
  EXPECT_EQ(f.client->in_flight(), 0u);
}

TEST(AppClient, UnknownResponseThrows) {
  ClientFixture f("equalmax");
  store::ReadResponse bogus;
  bogus.request_id = 424242;
  EXPECT_THROW(f.client->on_response(bogus), std::logic_error);
}

TEST(AppClient, EmptyTaskRejected) {
  ClientFixture f("equalmax");
  workload::TaskSpec empty;
  empty.id = 1;
  EXPECT_THROW(f.client->submit(empty), std::invalid_argument);
}

TEST(AppClient, RequestIdsGloballyUniquePerClient) {
  ClientFixture f("equalmax");
  f.simulator.schedule_at(Time::zero(), [&] {
    f.client->submit(f.task(1, {0, 1, 2}));
    f.client->submit(f.task(2, {3, 4, 5}));
  });
  f.simulator.run();
  std::set<store::RequestId> ids;
  for (const auto& out : f.sent) ids.insert(out.request.request_id);
  EXPECT_EQ(ids.size(), f.sent.size());
}

TEST(AppClient, CostNoiseProducesUnbiasedForecasts) {
  AppClient::Config config;
  config.cost_noise_sigma = 0.5;
  ClientFixture f("equalmax", config);
  double total = 0.0;
  int n = 0;
  f.simulator.schedule_at(Time::zero(), [&] {
    for (store::TaskId t = 1; t <= 400; ++t) {
      f.client->submit(f.task(t, {static_cast<store::KeyId>(t % 50)}));
    }
  });
  f.simulator.run();
  for (const auto& out : f.sent) {
    total += static_cast<double>(out.request.expected_cost.count_nanos());
    ++n;
  }
  // Unit-mean noise over 100us exact cost.
  EXPECT_NEAR(total / n, 100'000.0, 6'000.0);
  // Complete everything so in_flight drains (sanity).
  for (const auto& out : f.sent) f.client->on_response(f.response_for(out));
  EXPECT_EQ(f.client->in_flight(), 0u);
}

TEST(AppClient, PerRequestSelectionMode) {
  testutil::Deferred later;
  AppClient::Config config;
  config.select_per_subtask = false;
  // Round-robin per request: requests in one group may go to different
  // replicas (C3-style independence).
  sim::Simulator simulator;
  store::RingPartitioner partitioner(3, 3);  // every key: all 3 servers
  server::SizeLinearServiceModel cost_model(Duration::zero(), 1000.0);
  const policy::PriorityPolicy fifo(policy::PriorityPolicy::Rule::kFifo);
  std::vector<OutboundRequest> sent;
  RequestBook book;
  AppClient client(simulator, config, partitioner, cost_model,
                   single_endpoint("round-robin"), fifo,
                   DispatchGate(), util::Rng(2), book);
  const AppClient::NetworkSendFn capture = [&sent](const OutboundRequest& out) {
    sent.push_back(out);
  };
  client.set_network_send(&capture);
  workload::TaskSpec task;
  task.id = 1;
  task.requests = {{0, 10}, {1, 10}, {2, 10}};
  simulator.schedule_at(Time::zero(), later([&] { client.submit(task); }));
  simulator.run();
  std::set<store::ServerId> servers;
  for (const auto& out : sent) servers.insert(out.server);
  EXPECT_GT(servers.size(), 1u);
}

TEST(AppClient, ThousandsInFlightCompleteOutOfOrder) {
  testutil::Deferred later;
  // 1200 tasks in flight on one client, answered in a random order:
  // the pending-task table grows from its first 4 slots, erases from
  // the middle of probe runs, and every task completes exactly once —
  // on its last response, with the right latency. Random 64-bit ids
  // collide in the table far more than the generator's strided ids,
  // so probe runs (and backward-shift erases) are common.
  ClientFixture f("equalmax");
  constexpr store::TaskId kTasks = 1200;
  std::vector<store::TaskId> ids;
  util::Rng id_stream(5);
  for (store::TaskId i = 0; i < kTasks; ++i) ids.push_back(id_stream.next_u64());
  std::map<store::TaskId, std::size_t> remaining;
  f.simulator.schedule_at(Time::zero(), later([&] {
    for (store::TaskId i = 0; i < kTasks; ++i) {
      std::vector<store::KeyId> keys;
      for (store::TaskId k = 0; k <= i % 3; ++k) keys.push_back(i * 3 + k);
      remaining[ids[i]] = keys.size();
      f.client->submit(f.task(ids[i], keys));
    }
  }));
  f.simulator.run();
  ASSERT_EQ(f.client->in_flight(), f.sent.size());

  std::vector<OutboundRequest> order = f.sent;
  util::Rng shuffle(17);
  shuffle.shuffle(order);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const OutboundRequest& out = order[i];
    const Time at = Time::micros(static_cast<std::int64_t>(i + 1));
    f.simulator.schedule_at(at, later([&f, &remaining, out] {
      const std::size_t completed_before = f.completed_tasks.size();
      f.client->on_response(f.response_for(out));
      const bool last = --remaining[out.request.task_id] == 0;
      ASSERT_EQ(f.completed_tasks.size(), completed_before + (last ? 1 : 0));
      if (last) {
        EXPECT_EQ(f.completed_tasks.back().first, out.request.task_id);
        EXPECT_EQ(f.completed_tasks.back().second, f.simulator.now() - Time::zero());
      }
    }));
  }
  f.simulator.run();
  ASSERT_EQ(remaining.size(), kTasks);  // ids were distinct
  EXPECT_EQ(f.completed_tasks.size(), kTasks);
  EXPECT_EQ(f.client->stats().tasks_completed, kTasks);
  EXPECT_EQ(f.client->in_flight(), 0u);

  // A response whose request is known but whose task is not still
  // throws, with the (now empty) table allocated.
  f.simulator.schedule_at(Time::millis(10), [&] { f.client->submit(f.task(1, {0})); });
  f.simulator.run();
  store::ReadResponse stray = f.response_for(f.sent.back());
  stray.task_id = 2;
  EXPECT_THROW(f.client->on_response(stray), std::logic_error);
}

TEST(AppClient, ReentrantSubmitOnSharedScratchThrows) {
  // Two clients of one run share one request book and its planning
  // scratch. A submit issued from inside another submit (here: from the
  // transport hook, which in a real run only schedules events) must
  // throw rather than overwrite the plan in use, and the scratch must
  // be free again afterwards.
  ClientFixture f("equalmax");
  AppClient::Config config;
  config.id = 1;
  AppClient other(f.simulator, config, f.partitioner, f.cost_model,
                  single_endpoint("first"), *f.policy,
                  DispatchGate(), util::Rng(3), f.book);
  const AppClient::NetworkSendFn drop = [](const OutboundRequest&) {};
  other.set_network_send(&drop);
  bool reentered = false;
  const AppClient::NetworkSendFn reenter = [&](const OutboundRequest&) {
    if (reentered) return;
    reentered = true;
    other.submit(f.task(2, {5}));
  };
  f.client->set_network_send(&reenter);
  EXPECT_THROW(f.client->submit(f.task(1, {0, 1})), std::logic_error);
  EXPECT_TRUE(reentered);
  EXPECT_FALSE(f.book.in_use);
  EXPECT_EQ(other.stats().tasks_submitted, 0u);
  EXPECT_NO_THROW(other.submit(f.task(3, {4})));
  EXPECT_EQ(other.stats().tasks_submitted, 1u);
}

TEST(AppClient, RepeatedTaskIdThrowsPerClientOnly) {
  // A task id may be live once per client: a second submit of a live id
  // on one client throws, while another client sharing the request book
  // may use the same id (trace task ids can repeat across clients).
  ClientFixture f("equalmax");
  AppClient::Config config;
  config.id = 1;
  AppClient other(f.simulator, config, f.partitioner, f.cost_model,
                  single_endpoint("first"), *f.policy,
                  DispatchGate(), util::Rng(3), f.book);
  std::vector<OutboundRequest> other_sent;
  const AppClient::NetworkSendFn capture = [&](const OutboundRequest& out) {
    other_sent.push_back(out);
  };
  other.set_network_send(&capture);
  f.client->submit(f.task(7, {0}));
  EXPECT_THROW(f.client->submit(f.task(7, {1})), std::logic_error);
  EXPECT_NO_THROW(other.submit(f.task(7, {2})));
  ASSERT_EQ(f.sent.size(), 1u);
  ASSERT_EQ(other_sent.size(), 1u);
  // Each response completes its own client's task 7.
  other.on_response(f.response_for(other_sent[0]));
  EXPECT_EQ(other.stats().tasks_completed, 1u);
  EXPECT_EQ(f.client->stats().tasks_completed, 0u);
  f.client->on_response(f.response_for(f.sent[0]));
  EXPECT_EQ(f.client->stats().tasks_completed, 1u);
  // Once completed, the id is free again on that client.
  EXPECT_NO_THROW(f.client->submit(f.task(7, {3})));
}

TEST(AppClient, StaleBogusAndForeignRequestIdsThrow) {
  ClientFixture f("equalmax");
  f.client->submit(f.task(1, {0}));
  ASSERT_EQ(f.sent.size(), 1u);
  const OutboundRequest first = f.sent[0];
  f.client->on_response(f.response_for(first));
  // The next request reuses the released slot under a new generation:
  // a second response to the first id is stale and must not complete
  // the new request.
  f.client->submit(f.task(2, {0}));
  ASSERT_EQ(f.sent.size(), 2u);
  EXPECT_NE(f.sent[1].request.request_id, first.request.request_id);
  EXPECT_EQ(f.sent[1].request.request_id & 0xffffffffu, first.request.request_id & 0xffffffffu);
  store::ReadResponse stale = f.response_for(first);
  stale.task_id = 2;
  EXPECT_THROW(f.client->on_response(stale), std::logic_error);
  EXPECT_EQ(f.client->in_flight(), 1u);
  // Ids naming a slot that does not exist, a free generation, or the
  // live slot at a later generation.
  const store::RequestId live = f.sent[1].request.request_id;
  const store::RequestId generation = store::RequestId{1} << 32;
  for (const store::RequestId bogus :
       std::vector<store::RequestId>{0, generation | 999, live + generation,
                                     live + 2 * generation}) {
    store::ReadResponse response = f.response_for(f.sent[1]);
    response.request_id = bogus;
    EXPECT_THROW(f.client->on_response(response), std::logic_error) << bogus;
  }
  // Another client sharing the book does not own this id.
  AppClient::Config config;
  config.id = 1;
  AppClient other(f.simulator, config, f.partitioner, f.cost_model,
                  single_endpoint("first"), *f.policy,
                  DispatchGate(), util::Rng(3), f.book);
  EXPECT_THROW(other.on_response(f.response_for(f.sent[1])), std::logic_error);
  f.client->on_response(f.response_for(f.sent[1]));
  EXPECT_EQ(f.client->in_flight(), 0u);
  EXPECT_EQ(f.client->stats().tasks_completed, 2u);
}

TEST(AppClient, SharedBookIsSizedByFleetLivePeak) {
  // 64 clients take turns: each submits one 512-request task, which
  // drains before the next client submits. Per-client tables would
  // hold 64 x 512 in-flight slots; the shared book holds the fleet's
  // live peak, 512.
  constexpr std::uint32_t kClients = 64;
  constexpr store::KeyId kFanout = 512;
  ClientFixture f("equalmax");
  std::vector<std::unique_ptr<AppClient>> clients;
  std::vector<OutboundRequest> sent;
  const AppClient::NetworkSendFn capture = [&sent](const OutboundRequest& out) {
    sent.push_back(out);
  };
  for (std::uint32_t c = 0; c < kClients; ++c) {
    AppClient::Config config;
    config.id = c + 1;
    clients.push_back(std::make_unique<AppClient>(
        f.simulator, config, f.partitioner, f.cost_model, single_endpoint("first"), *f.policy,
        DispatchGate(), util::Rng(c), f.book));
    clients.back()->set_network_send(&capture);
  }
  std::vector<store::KeyId> keys(kFanout);
  for (store::KeyId k = 0; k < kFanout; ++k) keys[k] = k;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    sent.clear();
    clients[c]->submit(f.task(c, keys));
    ASSERT_EQ(sent.size(), kFanout);
    ASSERT_EQ(clients[c]->in_flight(), kFanout);
    for (const OutboundRequest& out : sent) clients[c]->on_response(f.response_for(out));
    ASSERT_EQ(clients[c]->in_flight(), 0u);
    ASSERT_EQ(clients[c]->stats().tasks_completed, 1u);
  }
  EXPECT_GE(f.book.inflight_capacity(), kFanout);
  EXPECT_LE(f.book.inflight_capacity(), 2 * kFanout);
  EXPECT_LE(f.book.pending_capacity(), 4u);
  EXPECT_EQ(f.book.logical_capacity(), 0u);
}

// ---------------------------------------------------------------------------
// DispatchGate under the cubic law (C3's rate limiter)

TEST(RateLimitedGate, TransmitsWithinRateImmediately) {
  sim::Simulator simulator;
  policy::CubicRateConfig config;
  config.initial_rate = 1000.0;
  DispatchGate gate(simulator, 2, config);
  int transmitted = 0;
  gate.set_transmit([&](OutboundRequest&) { ++transmitted; });
  OutboundRequest out;
  out.server = 0;
  gate.offer(out);
  EXPECT_EQ(transmitted, 1);
  EXPECT_EQ(gate.held(), 0u);
}

TEST(RateLimitedGate, HoldsBeyondBurstAndDrainsLater) {
  sim::Simulator simulator;
  policy::CubicRateConfig config;
  config.initial_rate = 1000.0;  // burst 8
  DispatchGate gate(simulator, 2, config);
  std::vector<Time> transmit_times;
  gate.set_transmit([&](OutboundRequest&) { transmit_times.push_back(simulator.now()); });
  simulator.schedule_at(Time::zero(), [&] {
    for (int i = 0; i < 12; ++i) {
      OutboundRequest out;
      out.server = 0;
      gate.offer(out);
    }
  });
  simulator.run();
  ASSERT_EQ(transmit_times.size(), 12u);
  // First 8 immediate, the rest paced at ~1ms each.
  EXPECT_EQ(transmit_times[7], Time::zero());
  EXPECT_GT(transmit_times[8], Time::zero());
  EXPECT_GE(transmit_times[11], transmit_times[8] + Duration::millis(2));
  EXPECT_EQ(gate.held(), 0u);
}

TEST(RateLimitedGate, PerServerIndependence) {
  testutil::Deferred later;
  sim::Simulator simulator;
  policy::CubicRateConfig config;
  config.initial_rate = 1000.0;
  DispatchGate gate(simulator, 2, config);
  int transmitted = 0;
  gate.set_transmit([&](OutboundRequest&) { ++transmitted; });
  simulator.schedule_at(Time::zero(), later([&] {
    for (int i = 0; i < 8; ++i) {
      OutboundRequest a;
      a.server = 0;
      gate.offer(a);
    }
    OutboundRequest b;
    b.server = 1;  // different token bucket: goes out immediately
    gate.offer(b);
    EXPECT_EQ(transmitted, 9);
  }));
  simulator.run();
}

TEST(RateLimitedGate, OpensSlotsOnlyForOfferedServers) {
  // Slots are first-touch: a client that talks to 2 of 1000 servers
  // keeps 2 slots, not a dense row of 1000.
  sim::Simulator simulator;
  policy::CubicRateConfig config;
  config.initial_rate = 1000.0;
  DispatchGate gate(simulator, 1000, config);
  gate.set_transmit([](OutboundRequest&) {});
  EXPECT_EQ(gate.slots(), 0u);
  for (const store::ServerId server : {999u, 0u, 999u}) {
    OutboundRequest out;
    out.server = server;
    gate.offer(out);
  }
  EXPECT_EQ(gate.slots(), 2u);
  EXPECT_DOUBLE_EQ(gate.balance(0), config.burst - 1.0);
  EXPECT_DOUBLE_EQ(gate.balance(999), config.burst - 2.0);
  EXPECT_DOUBLE_EQ(gate.balance(500), config.burst);  // unopened: a full bucket
  OutboundRequest beyond;
  beyond.server = 1000;
  EXPECT_THROW(gate.offer(beyond), std::out_of_range);
}

}  // namespace
}  // namespace brb::client
