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
//   client::DispatchGate's grant law — client side. Measures per-server
//     demand, reports it every measurement interval, spends credits to
//     transmit, and holds excess requests in a local priority queue
//     until the next grant.
//   CongestionMonitor — server side. Samples each server's queue length
//     at every monitor tick and signals the controller when a server's
//     backlog exceeds its capacity threshold.
//
// All control messages travel over the simulated network (latency
// applies), which is exactly the realism gap between credits and the
// ideal model.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

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

using store::CreditList;

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

  const ControllerStats& stats() const noexcept { return stats_; }
  double capacity_factor(store::ServerId server) const;
  /// The controller's event target (reports and signals address it).
  std::uint32_t target() const noexcept { return target_; }

 private:
  friend class sim::Simulator;  // dispatches kAdaptTick

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
  std::uint32_t target_;
};

/// Server-side queue watchdog that emits congestion signals.
///
/// Each tick samples every server's `queue_length()` (under a global
/// queue, its live backlog) and signals each server whose length
/// exceeds `congestion_queue_factor` x cores, in `servers` order.
class CongestionMonitor {
 public:
  using SignalFn = std::function<void(store::ServerId, std::uint32_t queue_length)>;

  CongestionMonitor(sim::Simulator& sim, std::vector<server::BackendServer*> servers,
                    CreditsConfig config, SignalFn signal);

  void start();
  void stop() noexcept { running_ = false; }

 private:
  friend class sim::Simulator;  // dispatches kMonitorTick

  void tick();

  sim::Simulator* sim_;
  std::vector<server::BackendServer*> servers_;
  CreditsConfig config_;
  SignalFn signal_;
  bool running_ = false;
  /// Per server, factor x cores: a queue longer than this signals.
  /// Kept in double so that no factor the flag accepts can wrap.
  std::vector<double> thresholds_;
  std::uint32_t target_;
};

}  // namespace brb::core
