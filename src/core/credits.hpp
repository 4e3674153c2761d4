// The credits realization of BRB (§2.2).
//
// "We develop a credits strategy where clients report their demands at
// measurement intervals and are assigned credits (i.e., shares of
// server capacity) proportionally to demands via a logically-
// centralized controller; once demand exceeds server capacity, a
// congestion signal is sent to the controller and the credits
// allocations are adapted accordingly at 1s intervals. In such a
// realization, each server maintains a separate priority-queue."
//
// Three cooperating pieces:
//   CreditsController — the logically-centralized allocator. Collects
//     demand reports, allocates each server's (possibly congestion-
//     reduced) capacity proportionally to client demands every
//     adaptation interval, and pushes grants to clients.
//   CreditGate — client side. Measures per-server demand, reports it
//     every measurement interval, spends credits to transmit, and holds
//     excess requests in a local priority queue until the next grant.
//   CongestionMonitor — server side. Watches queue lengths and signals
//     the controller when a server's backlog exceeds its capacity
//     threshold.
//
// All control messages travel over the simulated network (latency
// applies), which is exactly the realism gap between credits and the
// ideal model.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "client/dispatch_gate.hpp"
#include "ctrl/signal_table.hpp"
#include "server/backend_server.hpp"
#include "sim/simulator.hpp"
#include "store/types.hpp"

namespace brb::core {

struct CreditsConfig {
  /// Controller re-allocation period (the paper's 1 s).
  sim::Duration adapt_interval = sim::Duration::seconds(1.0);
  /// Client demand-report period (the paper's "measurement interval").
  sim::Duration measure_interval = sim::Duration::millis(100);
  /// Server queue length (in multiples of core count) that triggers a
  /// congestion signal. The signal means "demand exceeds capacity"
  /// (paper §2.2), i.e. a sustained standing queue — not transient
  /// burstiness, which a 70%-utilized server exhibits constantly.
  double congestion_queue_factor = 32.0;
  /// Congestion monitor sampling period.
  sim::Duration monitor_interval = sim::Duration::millis(100);
  /// Multiplicative capacity reduction applied to a congested server's
  /// allocatable capacity.
  double congestion_backoff = 0.9;
  /// Additive recovery (fraction of full capacity) per congestion-free
  /// adaptation interval.
  double recovery_step = 0.25;
  /// Floor on the congestion factor.
  double min_capacity_factor = 0.5;
  /// EWMA weight of the newest demand report.
  double demand_ewma_alpha = 0.5;
  /// Fraction of each server's capacity distributed as a guaranteed
  /// equal floor before proportional allocation. Bounds the stall a
  /// client suffers when it bursts onto a server it has no recent
  /// demand history with (grant would otherwise be ~0 for a whole
  /// adaptation interval).
  double min_share_fraction = 0.10;
  /// Unused balance carried into the next interval, as a multiple of
  /// the new grant (0 = strict reset). Smooths task bursts that span a
  /// grant boundary.
  double carryover_cap_factor = 0.5;
};

struct ControllerStats {
  std::uint64_t demand_reports = 0;
  std::uint64_t congestion_signals = 0;
  std::uint64_t adaptations = 0;
  std::uint64_t grants_sent = 0;
};

/// (server, value) pairs, ascending by server id: the wire format of
/// demand reports and grants.
using CreditList = std::vector<std::pair<store::ServerId, double>>;

/// Client-side credit gate (one per client).
///
/// Each (client, server) credit pair is either *pinned* or
/// *first-touch*. A pinned pair's slot exists from construction with
/// its own opening balance and is reported every tick, zero rate
/// included. A first-touch slot opens on the first offer to its server
/// with one scalar opening balance and is reported only for windows
/// with offers. Slots are one flat vector, ascending by server: with
/// every pair pinned, slot index equals server id and lookup is O(1);
/// otherwise per-client memory is O(servers actually contacted), which
/// is what makes a million-client credits fleet representable at all.
class CreditGate final : public client::DispatchGate {
 public:
  /// Ships this client's per-server demand rates (requests/s since the
  /// previous report) to the controller over the network.
  using ReportFn = std::function<void(const CreditList& rates)>;

  /// `pinned` lists the pinned servers with their opening balances
  /// (ascending, each below `num_servers`); every other server opens
  /// on first offer with `first_touch_credit`.
  CreditGate(sim::Simulator& sim, std::uint32_t num_servers, CreditsConfig config,
             const CreditList& pinned, double first_touch_credit = 0.0);

  void set_report(ReportFn fn) { report_ = std::move(fn); }

  /// Mirrors this gate's per-server balances into the client's
  /// SignalTable (immediately, then on every change), so selection
  /// policies read balances from the unified table instead of the gate.
  void attach_signals(ctrl::SignalTable* signals);

  /// Starts the periodic demand measurement loop.
  void start();
  /// Stops scheduling further measurements (lets the simulation drain).
  void stop() noexcept { running_ = false; }

  void offer(client::OutboundRequest out) override;
  std::size_t held() const noexcept override { return held_; }
  std::string name() const override { return "credits"; }

  /// Grant delivery from the controller: each listed server's balance
  /// resets to its new allocation (plus bounded carryover) and its held
  /// requests drain in priority order, in list order. Unlisted servers
  /// keep their balance.
  void on_grant(const CreditList& credits);

  /// Current balance. A server whose slot has not opened reports the
  /// first-touch credit it would open with.
  double balance(store::ServerId server) const;

  /// Requests that were ever held for lack of credits.
  std::uint64_t hold_events() const noexcept { return hold_events_; }
  /// Cumulative time held requests spent waiting for credits.
  sim::Duration total_hold_time() const noexcept { return total_hold_time_; }

 private:
  struct Held {
    store::Priority priority;
    std::uint64_t seq;
    sim::Time held_at;
    client::OutboundRequest out;
  };
  struct Slot {
    store::ServerId server = 0;
    bool pinned = false;
    double balance = 0.0;
    std::uint64_t offered_in_window = 0;
    std::vector<Held> heap;  // min-heap on (priority, seq)
  };

  void measure_tick();
  void drain(Slot& slot);
  /// Bounds-checked find-or-open: a missing slot opens first-touch
  /// (mirrored into the signal table).
  Slot& slot(store::ServerId server);
  static bool later(const Held& a, const Held& b) noexcept;
  void heap_push(Slot& slot, Held held);
  Held heap_pop(Slot& slot);
  void sync_balance(store::ServerId server, double balance) {
    if (signals_ != nullptr) signals_->set_credit_balance(server, balance);
  }

  sim::Simulator* sim_;
  CreditsConfig config_;
  std::uint32_t num_servers_;
  double first_touch_credit_;
  std::vector<Slot> slots_;  // ascending by server
  ctrl::SignalTable* signals_ = nullptr;
  CreditList rates_scratch_;  // reused per measure tick
  ReportFn report_;
  bool running_ = false;
  std::uint64_t next_seq_ = 0;
  std::size_t held_ = 0;
  std::uint64_t hold_events_ = 0;
  sim::Duration total_hold_time_ = sim::Duration::zero();
};

/// The logically-centralized allocator.
///
/// Each client's demand is one flat vector of (server, EWMA) entries,
/// ascending by server. Pinned pairs are on the books from
/// construction and stay there; a first-touch pair enters with its
/// first reported demand and is forgotten once its EWMA decays below a
/// retention floor, so the books track the client's *recent* working
/// set. Per server, the equal-share floor of the budget is split among
/// the clients with that pair on the books (every client when all
/// pairs are pinned), and one grant goes to each client with at least
/// one pair on the books.
class CreditsController {
 public:
  /// `send_grant(client, credits)` ships an allocation to one client
  /// over the network.
  using GrantFn = std::function<void(store::ClientId, const CreditList&)>;

  /// `capacities[s]` = server s's nominal capacity in requests/s. Each
  /// client's pairs with `pinned_servers` (ascending) are pinned.
  CreditsController(sim::Simulator& sim, std::uint32_t num_clients,
                    std::vector<double> capacities, CreditsConfig config,
                    const std::vector<store::ServerId>& pinned_servers = {});

  void set_grant_sender(GrantFn fn) { send_grant_ = std::move(fn); }

  /// Begins the periodic adaptation loop.
  void start();
  void stop() noexcept { running_ = false; }

  /// Network delivery of a client demand report (rates ascending by
  /// server id, as the gate emits them). Listed servers blend toward
  /// the new rate; entries absent from the report decay toward zero.
  void on_demand_report(store::ClientId client, const CreditList& rates);

  /// Network delivery of a server congestion signal.
  void on_congestion_signal(store::ServerId server, std::uint32_t queue_length);

  /// Proportional allocation (exposed for tests): given per-client
  /// demand for one server and its allocatable capacity, returns each
  /// client's credit share for one adaptation interval.
  static std::vector<double> allocate_proportional(const std::vector<double>& demands,
                                                   double capacity_per_interval);

  const ControllerStats& stats() const noexcept { return stats_; }
  double capacity_factor(store::ServerId server) const;

 private:
  struct Demand {
    store::ServerId server;
    bool pinned;
    double ewma;  // req/s
  };

  void adapt_tick();

  sim::Simulator* sim_;
  std::uint32_t num_clients_;
  std::vector<double> capacities_;
  CreditsConfig config_;
  GrantFn send_grant_;
  bool running_ = false;
  /// Per-client demand books, each ascending by server.
  std::vector<std::vector<Demand>> demand_;
  std::vector<double> capacity_factor_;
  std::vector<bool> congested_this_interval_;
  // Reused buffers (allocation-free steady state).
  std::vector<Demand> merge_scratch_;
  std::vector<double> server_total_demand_;
  std::vector<std::uint32_t> server_on_books_;
  std::vector<double> server_floor_each_;
  std::vector<double> server_prop_budget_;
  CreditList grant_scratch_;
  ControllerStats stats_;
};

/// Server-side queue watchdog that emits congestion signals.
///
/// Instead of scanning every server's queue each sampling period, the
/// monitor subscribes to each server's threshold-crossing watch
/// (BackendServer::set_queue_watch) and maintains the over-threshold
/// set incrementally; the periodic tick only walks servers already
/// known to be congested (and is a no-op while none are).
class CongestionMonitor {
 public:
  using SignalFn = std::function<void(store::ServerId, std::uint32_t queue_length)>;

  CongestionMonitor(sim::Simulator& sim, std::vector<server::BackendServer*> servers,
                    CreditsConfig config, SignalFn signal);

  void start();
  void stop() noexcept { running_ = false; }
  std::uint64_t signals_emitted() const noexcept { return signals_; }

 private:
  void tick();
  /// O(1) per threshold crossing: flips the server's congestion flag.
  void update(std::size_t index, bool over);

  sim::Simulator* sim_;
  std::vector<server::BackendServer*> servers_;
  CreditsConfig config_;
  SignalFn signal_;
  bool running_ = false;
  std::uint64_t signals_ = 0;
  std::vector<std::uint32_t> thresholds_;
  std::vector<bool> over_;
  std::size_t num_over_ = 0;
};

}  // namespace brb::core
