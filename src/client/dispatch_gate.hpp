// The dispatch gate: how planned requests leave the client.
//
// BRB's realizations differ exactly here — direct transmission, C3's
// cubic rate limiting, the credits scheme (core/credits.hpp), or
// submission into the ideal global queue (server/global_queue.hpp). The
// gate receives fully-planned requests (replica chosen, priority
// stamped) and decides *when* to hand them to the transport.
//
// It is one concrete class over a closed set: `direct` transmits at
// once; every other gate is a token gate. A token gate keeps one slot
// per server it has touched, with a token balance, the requests held
// for lack of a token, and one wake flag. A request goes out when its
// server's slot holds a token and nothing is queued ahead of it. The
// rate law decides where tokens come from:
//   grant — the paper's credits (§2.2). A controller grants each
//     server's balance once per adaptation interval, from the demand
//     this gate reports every measurement interval. Held requests
//     drain in priority order when a grant lands.
//   cubic — C3's rate limiter. Each slot's bucket refills at its own
//     CUBIC-adapted rate, and a slot with held requests schedules one
//     wake for the instant its next token accrues. Held requests drain
//     in arrival order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/credits.hpp"
#include "policy/c3.hpp"
#include "sim/simulator.hpp"
#include "store/types.hpp"

namespace brb::ctrl {
class SignalTable;
}  // namespace brb::ctrl

namespace brb::client {

/// A planned request on its way out of the client.
struct OutboundRequest {
  /// `logical` sentinel: not part of a multi-copy logical request.
  static constexpr std::uint32_t kNoLogical = 0xffffffffu;

  store::ReadRequest request;
  store::ServerId server = 0;
  store::GroupId group = 0;
  /// Multi-copy dispatch (hedge/tied/kofn): index of the logical
  /// request this copy belongs to, and which plan target it is. The
  /// client uses them to drop tombstoned copies at transmit time.
  std::uint32_t logical = kNoLogical;
  std::uint8_t copy = 0;
};

/// One client's gate. Slots are one flat vector, ascending by server,
/// opened on first touch: per-client memory is O(servers actually
/// contacted). A grant gate may pin every server from construction;
/// then slot index equals server id and lookup is O(1).
///
/// Pending events address the gate through its registration with the
/// simulator, so it is never copied, and moves only before it is
/// wired (see the move constructor).
class DispatchGate {
 public:
  /// Installed by the client: stamps send-time state and transmits.
  using TransmitFn = std::function<void(OutboundRequest&)>;
  /// Ships this client's per-server demand rates (requests/s since the
  /// previous report) to the credits controller over the network.
  using ReportFn = std::function<void(const core::CreditList& rates)>;

  /// No gating: transmit immediately.
  DispatchGate() = default;
  /// The grant law. Each (client, server) credit pair is either
  /// *pinned* or *first-touch*. `pinned` lists the pinned servers with
  /// their opening balances (ascending, each below `num_servers`); a
  /// pinned slot exists from construction and is reported every tick,
  /// zero rate included. Every other server opens on its first offer
  /// with `first_touch_credit` and is reported only for windows with
  /// offers.
  DispatchGate(sim::Simulator& sim, std::uint32_t num_servers, const core::CreditsConfig& config,
               const core::CreditList& pinned, double first_touch_credit = 0.0);
  /// The cubic law; `config.initial_rate` must already be resolved.
  DispatchGate(sim::Simulator& sim, std::uint32_t num_servers,
               const policy::CubicRateConfig& config);

  /// Moves a gate that has no transmit installed and no event target
  /// yet, so no event can address it. Throws std::logic_error on any
  /// other gate. A client takes its gate this way, then wires it in
  /// place.
  DispatchGate(DispatchGate&& other);
  DispatchGate(const DispatchGate&) = delete;
  DispatchGate& operator=(const DispatchGate&) = delete;
  DispatchGate& operator=(DispatchGate&&) = delete;

  void set_transmit(TransmitFn fn) { transmit_ = std::move(fn); }

  /// Accepts a planned request; transmits now or later (never drops).
  void offer(OutboundRequest out) {
    if (state_) {
      offer_to_slot(std::move(out));
    } else {
      transmit_(out);
    }
  }

  /// Response feedback: the cubic law closes its measurement windows.
  void on_response(store::ServerId server, const store::ServerFeedback& /*feedback*/) {
    if (state_) on_token_response(server);
  }

  /// Requests currently held back by the gate.
  std::size_t held() const noexcept { return state_ ? state_->held : 0; }
  /// The admission policy's catalog name (ctrl/admission.hpp).
  std::string name() const;

  /// Token balance. A server whose slot has not opened reports the
  /// balance it would open with.
  double balance(store::ServerId server) const;
  /// Slots opened so far (pinned ones included).
  std::size_t slots() const noexcept { return state_ ? state_->slots.size() : 0; }
  /// Cubic law only: the current rate cap toward `server`, req/s.
  double rate(store::ServerId server) const;

  /// Requests that were ever held for lack of a token.
  std::uint64_t hold_events() const noexcept { return state_ ? state_->hold_events : 0; }
  /// Cumulative time held requests spent waiting for a token.
  sim::Duration total_hold_time() const noexcept {
    return state_ ? state_->total_hold_time : sim::Duration::zero();
  }

  // --- grant law only ---

  void set_report(ReportFn fn);
  /// Mirrors the per-server balances into the client's SignalTable
  /// (immediately, then on every change), so selection policies read
  /// balances from the unified table instead of the gate. Other laws
  /// keep their tokens to themselves.
  void attach_signals(ctrl::SignalTable* signals);
  /// Starts the periodic demand measurement loop.
  void start();
  /// Stops scheduling further measurements (lets the simulation drain).
  void stop();
  /// Grant delivery from the controller: each listed server's balance
  /// resets to its new allocation (plus bounded carryover) and its held
  /// requests drain in priority order, in list order. Unlisted servers
  /// keep their balance.
  void on_grant(const core::CreditList& credits);

  /// A token gate's event target (grants address it), registered with
  /// the simulator on first use.
  std::uint32_t target();

 private:
  friend class sim::Simulator;  // dispatches kGateWake and kMeasureTick

  struct Grant {
    core::CreditsConfig config;
    double first_touch_credit = 0.0;
    ReportFn report;
    bool running = false;
    core::CreditList rates_scratch;  // reused per measure tick
  };
  struct Cubic {
    policy::CubicRateConfig config;
  };
  /// A request waiting for a token. The held order is (key, seq): the
  /// request's priority under grant, a constant (so arrival order)
  /// under cubic.
  struct Held {
    store::Priority key;
    std::uint64_t seq;
    sim::Time held_at;
    OutboundRequest out;
  };
  struct Slot {
    store::ServerId server = 0;
    bool pinned = false;        // grant: reported every tick
    bool wake_pending = false;  // cubic: a wake is scheduled
    double tokens = 0.0;
    sim::Time last_refill;                // cubic: bucket bookkeeping
    std::uint64_t offered_in_window = 0;  // offers since grant's last report
    policy::CubicRate cubic;              // cubic: this pair's rate
    std::vector<Held> held;               // heap on (key, seq)
  };
  /// A token gate's state, kept out of line so that a direct gate, the
  /// one a million-client fleet holds per client, stays small.
  struct TokenState {
    sim::Simulator* sim;
    std::uint32_t num_servers;
    std::variant<Grant, Cubic> law;
    std::vector<Slot> slots;  // ascending by server
    ctrl::SignalTable* signals = nullptr;
    std::optional<std::uint32_t> target = std::nullopt;
    std::uint64_t next_seq = 0;
    std::size_t held = 0;
    std::uint64_t hold_events = 0;
    sim::Duration total_hold_time = sim::Duration::zero();
  };

  /// The token-gate halves of offer() and on_response(), out of line
  /// so that a direct gate's calls inline to a transmit or a null check.
  void offer_to_slot(OutboundRequest out);
  void on_token_response(store::ServerId server);
  /// Bounds-checked find-or-open: a missing slot opens first-touch.
  Slot& slot(store::ServerId server);
  /// The slot of `server`, or nullptr if it has not opened. Throws on
  /// a direct gate, which has no slots.
  const Slot* find(store::ServerId server) const;
  /// Spends one token if the slot has one (a cubic slot refills first).
  bool try_acquire(Slot& slot);
  /// Transmits held requests while tokens last.
  void drain(Slot& slot);
  /// Cubic: schedules one wake for when the slot's next token accrues.
  void schedule_wake(Slot& slot);
  /// The kGateWake handler.
  void wake(store::ServerId server);
  void refill(Slot& slot, const Cubic& law) const;
  void measure_tick();
  void sync_balance(const Slot& slot);
  /// Throws unless this is a grant gate.
  Grant& grant_law();

  TransmitFn transmit_;
  std::unique_ptr<TokenState> state_;  // null: direct
};

}  // namespace brb::client
