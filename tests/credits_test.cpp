// Tests for the credits realization: controller allocation, the
// client-side gate, congestion monitoring, credit-aware selection.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/dispatch_gate.hpp"
#include "core/credits.hpp"
#include "ctrl/dispatch_policy.hpp"
#include "ctrl/signal_table.hpp"
#include "server/backend_server.hpp"
#include "server/service_model.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace brb::core {
namespace {

using sim::Duration;
using sim::Time;

// ---------------------------------------------------------------------------
// DispatchGate under the grant law (the credits gate)

client::OutboundRequest make_out(store::ServerId server, store::Priority priority,
                                 store::RequestId id) {
  client::OutboundRequest out;
  out.server = server;
  out.request.request_id = id;
  out.request.priority = priority;
  return out;
}

/// One (server, value) entry per server, in server order: the list
/// form of a full per-server vector.
CreditList every_server(const std::vector<double>& values) {
  CreditList list;
  for (std::size_t s = 0; s < values.size(); ++s) {
    list.emplace_back(static_cast<store::ServerId>(s), values[s]);
  }
  return list;
}

struct GateFixture {
  sim::Simulator simulator;
  CreditsConfig config;
  client::DispatchGate gate;
  std::vector<store::RequestId> transmitted;

  /// Every server pinned with the given opening balances.
  explicit GateFixture(const std::vector<double>& initial)
      : GateFixture(static_cast<std::uint32_t>(initial.size()), every_server(initial), 0.0) {}

  GateFixture(std::uint32_t num_servers, const CreditList& pinned, double first_touch_credit)
      : gate(simulator, num_servers, config, pinned, first_touch_credit) {
    gate.set_transmit([this](client::OutboundRequest& out) {
      transmitted.push_back(out.request.request_id);
    });
  }
};

TEST(CreditGate, SpendsCreditsToTransmit) {
  GateFixture f({2.0, 2.0});
  f.gate.offer(make_out(0, 1.0, 1));
  f.gate.offer(make_out(0, 1.0, 2));
  EXPECT_EQ(f.transmitted.size(), 2u);
  EXPECT_DOUBLE_EQ(f.gate.balance(0), 0.0);
}

TEST(CreditGate, HoldsWhenBroke) {
  GateFixture f({1.0, 1.0});
  f.gate.offer(make_out(0, 1.0, 1));
  f.gate.offer(make_out(0, 1.0, 2));
  EXPECT_EQ(f.transmitted.size(), 1u);
  EXPECT_EQ(f.gate.held(), 1u);
  EXPECT_EQ(f.gate.hold_events(), 1u);
}

TEST(CreditGate, GrantDrainsInPriorityOrder) {
  GateFixture f({0.0, 0.0});
  f.gate.offer(make_out(0, 5.0, 1));
  f.gate.offer(make_out(0, 1.0, 2));
  f.gate.offer(make_out(0, 3.0, 3));
  EXPECT_EQ(f.gate.held(), 3u);
  f.gate.on_grant(every_server({10.0, 10.0}));
  ASSERT_EQ(f.transmitted.size(), 3u);
  EXPECT_EQ(f.transmitted, (std::vector<store::RequestId>{2, 3, 1}));
}

TEST(CreditGate, PartialGrantDrainsHighestPriorityOnly) {
  GateFixture f({0.0});
  f.gate.offer(make_out(0, 5.0, 1));
  f.gate.offer(make_out(0, 1.0, 2));
  f.gate.on_grant({{0, 1.0}});
  ASSERT_EQ(f.transmitted.size(), 1u);
  EXPECT_EQ(f.transmitted[0], 2u);
  EXPECT_EQ(f.gate.held(), 1u);
}

TEST(CreditGate, CarryoverIsBounded) {
  GateFixture f({100.0});
  // Nothing spent; carryover cap 0.5 * grant.
  f.gate.on_grant({{0, 10.0}});
  EXPECT_DOUBLE_EQ(f.gate.balance(0), 10.0 + 5.0);
}

TEST(CreditGate, GrantLeavesUnlistedServersAlone) {
  GateFixture f({0.0, 4.0});
  f.gate.on_grant({{0, 2.0}});
  EXPECT_DOUBLE_EQ(f.gate.balance(0), 2.0);
  EXPECT_DOUBLE_EQ(f.gate.balance(1), 4.0);
}

TEST(CreditGate, HoldTimeAccumulates) {
  GateFixture f({0.0});
  f.simulator.schedule_at(Time::millis(1), [&] { f.gate.offer(make_out(0, 1.0, 1)); });
  f.simulator.schedule_at(Time::millis(5), [&] { f.gate.on_grant({{0, 1.0}}); });
  f.simulator.run();
  EXPECT_EQ(f.gate.total_hold_time().count_nanos(), Duration::millis(4).count_nanos());
}

TEST(CreditGate, FifoWithinEqualPriority) {
  GateFixture f({0.0});
  for (store::RequestId id = 1; id <= 10; ++id) f.gate.offer(make_out(0, 7.0, id));
  f.gate.on_grant({{0, 10.0}});
  for (store::RequestId id = 1; id <= 10; ++id) ASSERT_EQ(f.transmitted[id - 1], id);
}

TEST(CreditGate, MeasurementReportsDemandRates) {
  GateFixture f({100.0, 100.0});
  std::vector<CreditList> reports;
  f.gate.set_report([&](const CreditList& rates) { reports.push_back(rates); });
  f.gate.start();
  f.simulator.schedule_at(Time::millis(10), [&] {
    for (int i = 0; i < 7; ++i) f.gate.offer(make_out(0, 1.0, static_cast<std::uint64_t>(i)));
    f.gate.offer(make_out(1, 1.0, 99));
  });
  f.simulator.run_until(Time::millis(250));
  f.gate.stop();
  ASSERT_EQ(reports.size(), 2u);
  // 7 offers to server 0 in a 100ms window -> 70 req/s.
  ASSERT_EQ(reports[0].size(), 2u);
  EXPECT_EQ(reports[0][0].first, 0u);
  EXPECT_NEAR(reports[0][0].second, 70.0, 1e-9);
  EXPECT_EQ(reports[0][1].first, 1u);
  EXPECT_NEAR(reports[0][1].second, 10.0, 1e-9);
  // Second window has no offers: pinned servers still report, at zero.
  EXPECT_EQ(reports[1], every_server({0.0, 0.0}));
}

TEST(CreditGate, FirstTouchBalanceIsMirroredIntoSignals) {
  GateFixture f(4, {}, 2.5);
  ctrl::SignalTable signals;
  f.gate.attach_signals(&signals);
  // An unopened server reads the balance it would open with.
  EXPECT_DOUBLE_EQ(f.gate.balance(2), 2.5);
  f.gate.offer(make_out(2, 1.0, 1));
  ASSERT_EQ(f.transmitted.size(), 1u);
  EXPECT_DOUBLE_EQ(signals.credit_balance(2), 1.5);
  EXPECT_DOUBLE_EQ(f.gate.balance(2), 1.5);

  // Below one credit the first request is held, and the opening
  // balance itself is what the table shows.
  GateFixture poor(4, {}, 0.25);
  poor.gate.attach_signals(&signals);
  poor.gate.offer(make_out(3, 1.0, 1));
  EXPECT_EQ(poor.gate.held(), 1u);
  EXPECT_DOUBLE_EQ(signals.credit_balance(3), 0.25);
}

TEST(CreditGate, IdleFirstTouchGateSendsNoReport) {
  GateFixture f(3, {}, 1.0);
  std::vector<CreditList> reports;
  f.gate.set_report([&](const CreditList& rates) { reports.push_back(rates); });
  f.gate.start();
  f.simulator.run_until(Time::millis(350));
  EXPECT_TRUE(reports.empty());
  // One offer: the next tick lists only that server; later ticks are
  // silent again.
  f.simulator.schedule_at(Time::millis(360), [&] { f.gate.offer(make_out(1, 1.0, 1)); });
  f.simulator.run_until(Time::millis(650));
  f.gate.stop();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0], (CreditList{{1, 10.0}}));
}

TEST(CreditGate, PinnedAndFirstTouchSlotsShareOneReport) {
  // Server 0 pinned, the others first-touch.
  GateFixture f(3, {{0, 5.0}}, 1.0);
  std::vector<CreditList> reports;
  f.gate.set_report([&](const CreditList& rates) { reports.push_back(rates); });
  f.gate.start();
  f.simulator.schedule_at(Time::millis(10), [&] { f.gate.offer(make_out(2, 1.0, 1)); });
  f.simulator.run_until(Time::millis(250));
  f.gate.stop();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0], (CreditList{{0, 0.0}, {2, 10.0}}));
  EXPECT_EQ(reports[1], (CreditList{{0, 0.0}}));
}

TEST(CreditGate, RejectsMalformedInput) {
  sim::Simulator simulator;
  CreditsConfig config;
  using client::DispatchGate;
  EXPECT_THROW(DispatchGate(simulator, 0, config, {}), std::invalid_argument);
  EXPECT_THROW(DispatchGate(simulator, 2, config, {{2, 1.0}}), std::invalid_argument);
  EXPECT_THROW(DispatchGate(simulator, 2, config, {{1, 1.0}, {0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(DispatchGate(simulator, 2, config, {}, -1.0), std::invalid_argument);
  GateFixture f({1.0});
  EXPECT_THROW(f.gate.offer(make_out(5, 1.0, 1)), std::out_of_range);
  EXPECT_THROW(f.gate.on_grant({{1, 2.0}}), std::out_of_range);
  EXPECT_THROW(f.gate.balance(9), std::out_of_range);
  GateFixture first_touch(2, {}, 1.0);
  EXPECT_THROW(first_touch.gate.offer(make_out(2, 1.0, 1)), std::out_of_range);
  EXPECT_THROW(first_touch.gate.on_grant({{2, 1.0}}), std::out_of_range);
}

// ---------------------------------------------------------------------------
// CreditsController

struct ControllerFixture {
  sim::Simulator simulator;
  CreditsConfig config;
  std::unique_ptr<CreditsController> controller;
  std::vector<std::pair<store::ClientId, CreditList>> grants;

  /// Every (client, server) pair pinned.
  ControllerFixture(std::uint32_t clients, std::vector<double> capacities)
      : ControllerFixture(clients, capacities, all_servers(capacities.size())) {}

  ControllerFixture(std::uint32_t clients, std::vector<double> capacities,
                    const std::vector<store::ServerId>& pinned_servers) {
    controller = std::make_unique<CreditsController>(simulator, clients, std::move(capacities),
                                                     config, pinned_servers);
    controller->set_grant_sender([this](store::ClientId client, const CreditList& g) {
      grants.emplace_back(client, g);
    });
  }

  static std::vector<store::ServerId> all_servers(std::size_t n) {
    std::vector<store::ServerId> servers(n);
    for (std::size_t s = 0; s < n; ++s) servers[s] = static_cast<store::ServerId>(s);
    return servers;
  }
};

TEST(CreditsController, GrantsProportionallyAfterReports) {
  ControllerFixture f(2, {1000.0});
  f.controller->on_demand_report(0, {{0, 100.0}});
  f.controller->on_demand_report(1, {{0, 300.0}});
  f.controller->start();
  f.simulator.run_until(Time::seconds(1.5));
  f.controller->stop();
  ASSERT_EQ(f.grants.size(), 2u);
  // EWMA from zero with alpha 0.5 halves the report, but proportions
  // are preserved: client 1 gets 3x client 0 of the proportional pool.
  const double floor_each = 1000.0 * f.config.min_share_fraction / 2.0;
  const double pool = 1000.0 * (1.0 - f.config.min_share_fraction);
  EXPECT_NEAR(f.grants[0].second[0].second, floor_each + pool * 0.25, 1e-6);
  EXPECT_NEAR(f.grants[1].second[0].second, floor_each + pool * 0.75, 1e-6);
}

TEST(CreditsController, TotalGrantsEqualCapacityPerInterval) {
  ControllerFixture f(3, {500.0, 700.0});
  f.controller->on_demand_report(0, every_server({10.0, 20.0}));
  f.controller->on_demand_report(1, every_server({30.0, 40.0}));
  f.controller->on_demand_report(2, every_server({60.0, 0.0}));
  f.controller->start();
  f.simulator.run_until(Time::seconds(1.5));
  f.controller->stop();
  ASSERT_EQ(f.grants.size(), 3u);
  double total_s0 = 0.0;
  double total_s1 = 0.0;
  for (const auto& [client, grant] : f.grants) {
    ASSERT_EQ(grant.size(), 2u);
    total_s0 += grant[0].second;
    total_s1 += grant[1].second;
  }
  EXPECT_NEAR(total_s0, 500.0, 1e-6);
  EXPECT_NEAR(total_s1, 700.0, 1e-6);
}

TEST(CreditsController, PinnedZeroDemandPairIsKeptAndGranted) {
  // Server 0 pinned, server 1 first-touch.
  ControllerFixture f(2, {1000.0, 1000.0}, {0});
  // Dozens of zero reports: a pinned pair is never forgotten.
  for (int i = 0; i < 50; ++i) f.controller->on_demand_report(0, {{0, 0.0}});
  f.controller->on_demand_report(1, {{0, 0.0}, {1, 100.0}});
  f.controller->start();
  f.simulator.run_until(Time::seconds(1.5));
  f.controller->stop();
  ASSERT_EQ(f.grants.size(), 2u);
  // No demand on record for server 0: both pinned clients split its
  // floor and its proportional pool equally.
  EXPECT_EQ(f.grants[0].first, 0u);
  EXPECT_EQ(f.grants[0].second, (CreditList{{0, 500.0}}));
  // Server 1's whole budget goes to the one client on its books.
  EXPECT_EQ(f.grants[1].first, 1u);
  EXPECT_EQ(f.grants[1].second, (CreditList{{0, 500.0}, {1, 1000.0}}));
}

TEST(CreditsController, ForgottenFirstTouchPairLeavesTheFloorSplit) {
  ControllerFixture f(2, {1000.0, 1000.0}, {});
  f.controller->on_demand_report(0, {{0, 100.0}});
  f.controller->on_demand_report(1, {{0, 100.0}});
  f.controller->start();
  f.simulator.run_until(Time::seconds(1.5));
  ASSERT_EQ(f.grants.size(), 2u);
  // Both clients on server 0's books: floor and pool split two ways.
  EXPECT_EQ(f.grants[0].second, (CreditList{{0, 500.0}}));
  EXPECT_EQ(f.grants[1].second, (CreditList{{0, 500.0}}));

  // Client 1 moves to server 1; its server-0 EWMA (50 req/s) halves per
  // report. After 35 reports it is 50 / 2^35 ~ 1.5e-9: still kept.
  for (int i = 0; i < 35; ++i) f.controller->on_demand_report(1, {{1, 100.0}});
  f.grants.clear();
  f.simulator.run_until(Time::seconds(2.5));
  ASSERT_EQ(f.grants.size(), 2u);
  ASSERT_EQ(f.grants[1].second.size(), 2u);
  EXPECT_EQ(f.grants[1].second[0].first, 0u);

  // One more report takes it below 1e-9: forgotten, so server 0's
  // whole floor goes to client 0, the one client left on its books.
  f.controller->on_demand_report(1, {{1, 100.0}});
  f.grants.clear();
  f.simulator.run_until(Time::seconds(3.5));
  f.controller->stop();
  ASSERT_EQ(f.grants.size(), 2u);
  EXPECT_EQ(f.grants[0].second, (CreditList{{0, 1000.0}}));
  EXPECT_EQ(f.grants[1].second, (CreditList{{1, 1000.0}}));
}

TEST(CreditsController, ClientsWithNothingOnTheBooksGetNoGrant) {
  ControllerFixture f(3, {1000.0}, {});
  f.controller->on_demand_report(1, {{0, 10.0}});
  f.controller->start();
  f.simulator.run_until(Time::seconds(1.5));
  f.controller->stop();
  ASSERT_EQ(f.grants.size(), 1u);
  EXPECT_EQ(f.grants[0].first, 1u);
  EXPECT_EQ(f.controller->stats().grants_sent, 1u);
}

TEST(CreditsController, CongestionShrinksThenRecovers) {
  ControllerFixture f(1, {1000.0});
  f.controller->start();
  f.controller->on_congestion_signal(0, 99);
  f.simulator.run_until(Time::seconds(1.5));
  EXPECT_NEAR(f.controller->capacity_factor(0), f.config.congestion_backoff, 1e-9);
  // No further signals: factor recovers toward 1.
  f.simulator.run_until(Time::seconds(4.5));
  f.controller->stop();
  EXPECT_NEAR(f.controller->capacity_factor(0), 1.0, 1e-9);
}

TEST(CreditsController, FactorNeverBelowFloor) {
  ControllerFixture f(1, {1000.0});
  f.controller->start();
  // Signal congestion every interval for a long time.
  for (int i = 0; i < 40; ++i) {
    f.simulator.schedule_at(Time::seconds(0.5 + i), [&] {
      f.controller->on_congestion_signal(0, 500);
    });
  }
  f.simulator.run_until(Time::seconds(42));
  f.controller->stop();
  EXPECT_GE(f.controller->capacity_factor(0), f.config.min_capacity_factor - 1e-9);
}

TEST(CreditsController, RejectsMalformedInput) {
  sim::Simulator simulator;
  CreditsConfig config;
  EXPECT_THROW(CreditsController(simulator, 0, {100.0}, config), std::invalid_argument);
  EXPECT_THROW(CreditsController(simulator, 1, {}, config), std::invalid_argument);
  EXPECT_THROW(CreditsController(simulator, 1, {0.0}, config), std::invalid_argument);
  EXPECT_THROW(CreditsController(simulator, 1, {100.0}, config, {1}), std::invalid_argument);
  EXPECT_THROW(CreditsController(simulator, 1, {100.0, 100.0}, config, {1, 0}),
               std::invalid_argument);
  ControllerFixture f(2, {100.0});
  EXPECT_THROW(f.controller->on_demand_report(5, {{0, 1.0}}), std::out_of_range);
  EXPECT_THROW(f.controller->on_demand_report(0, {{0, 1.0}, {1, 2.0}}), std::out_of_range);
  EXPECT_THROW(f.controller->on_congestion_signal(3, 1), std::out_of_range);
  EXPECT_THROW(f.controller->capacity_factor(3), std::out_of_range);
}

TEST(CreditsController, StatsCount) {
  ControllerFixture f(1, {100.0});
  f.controller->on_demand_report(0, {{0, 1.0}});
  f.controller->on_congestion_signal(0, 10);
  f.controller->start();
  f.simulator.run_until(Time::seconds(2.5));
  f.controller->stop();
  EXPECT_EQ(f.controller->stats().demand_reports, 1u);
  EXPECT_EQ(f.controller->stats().congestion_signals, 1u);
  EXPECT_EQ(f.controller->stats().adaptations, 2u);
  EXPECT_EQ(f.controller->stats().grants_sent, 2u);
}

// ---------------------------------------------------------------------------
// CongestionMonitor

TEST(CongestionMonitor, SignalsOnlyAboveThreshold) {
  sim::Simulator simulator;
  server::SizeLinearServiceModel model(Duration::millis(10), 0.0);
  server::BackendServer::Config server_config;
  server_config.id = 0;
  server_config.cores = 1;
  server::BackendServer server(simulator, server_config, model, util::Rng(1));
  server.use_private_queue(server::make_discipline("fifo"));
  server.set_response_handler([](const store::ReadResponse&) {});
  server.storage().put_meta(1, 100);

  CreditsConfig config;
  config.congestion_queue_factor = 4.0;  // threshold: queue > 4
  std::vector<std::uint32_t> signals;
  CongestionMonitor monitor(simulator, {&server}, config,
                            [&](store::ServerId, std::uint32_t queue) {
                              signals.push_back(queue);
                            });
  monitor.start();

  // Queue only 3 deep: below threshold, silent.
  simulator.schedule_at(Time::millis(1), [&] {
    for (store::RequestId id = 0; id < 4; ++id) {
      store::ReadRequest request;
      request.request_id = id;
      request.key = 1;
      server.receive(request);
    }
  });
  simulator.run_until(Time::millis(9));
  EXPECT_TRUE(signals.empty());

  // Pile on 20 more: queue length exceeds 4, monitor fires.
  simulator.schedule_at(Time::millis(10), [&] {
    for (store::RequestId id = 100; id < 120; ++id) {
      store::ReadRequest request;
      request.request_id = id;
      request.key = 1;
      server.receive(request);
    }
  });
  simulator.run_until(Time::millis(250));
  monitor.stop();
  EXPECT_FALSE(signals.empty());
  EXPECT_GT(signals.front(), 4u);
}

// ---------------------------------------------------------------------------
// The credit-aware dispatch policy over the gate-mirrored SignalTable:
// the gate mirrors balances into the unified table, the policy's credit
// filter picks funded replicas from it.

std::unique_ptr<ctrl::DispatchPolicy> credit_aware(const std::string& rule) {
  return ctrl::make_dispatch_policy(rule, {}, {}, true, Duration::millis(1), util::Rng(1));
}

TEST(CreditAwarePolicy, PrefersFundedReplicas) {
  sim::Simulator simulator;
  CreditsConfig config;
  ctrl::SignalTable signals;
  client::DispatchGate gate(simulator, 3, config, every_server({0.0, 5.0, 0.0}));
  gate.attach_signals(&signals);
  const auto aware = credit_aware("round-robin");
  // Only server 1 is funded.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(aware->plan(signals, {0, 1, 2}, Duration::zero()).primary(), 1u);
  }
}

TEST(CreditAwarePolicy, FallsBackWhenAllBroke) {
  sim::Simulator simulator;
  CreditsConfig config;
  ctrl::SignalTable signals;
  client::DispatchGate gate(simulator, 3, config, every_server({0.0, 0.0, 0.0}));
  gate.attach_signals(&signals);
  const auto aware = credit_aware("first");
  EXPECT_EQ(aware->plan(signals, {2, 1, 0}, Duration::zero()).primary(), 2u);  // rule decides
}

TEST(CreditAwarePolicy, PassThroughWhenAllFunded) {
  sim::Simulator simulator;
  CreditsConfig config;
  ctrl::SignalTable signals;
  client::DispatchGate gate(simulator, 3, config, every_server({5.0, 5.0, 5.0}));
  gate.attach_signals(&signals);
  const auto aware = credit_aware("round-robin");
  EXPECT_EQ(aware->plan(signals, {0, 1, 2}, Duration::zero()).primary(), 0u);
  EXPECT_EQ(aware->plan(signals, {0, 1, 2}, Duration::zero()).primary(), 1u);
}

TEST(CreditAwarePolicy, MirrorTracksSpends) {
  // Spending a credit through the gate immediately updates the
  // table's balance — selection and admission can never disagree.
  sim::Simulator simulator;
  CreditsConfig config;
  ctrl::SignalTable signals;
  client::DispatchGate gate(simulator, 2, config, every_server({1.0, 5.0}));
  gate.attach_signals(&signals);
  EXPECT_DOUBLE_EQ(signals.credit_balance(0), 1.0);
  bool sent = false;
  gate.set_transmit([&](client::OutboundRequest&) { sent = true; });
  client::OutboundRequest out;
  out.server = 0;
  gate.offer(std::move(out));
  EXPECT_TRUE(sent);
  EXPECT_DOUBLE_EQ(signals.credit_balance(0), 0.0);
  EXPECT_DOUBLE_EQ(signals.credit_balance(1), 5.0);

  // A grant refills the mirror too.
  gate.on_grant(every_server({3.0, 3.0}));
  EXPECT_DOUBLE_EQ(signals.credit_balance(0), 3.0);
}

}  // namespace
}  // namespace brb::core
