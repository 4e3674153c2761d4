// Dispatch gates: how planned requests leave the client.
//
// BRB's realizations differ exactly here — direct transmission, C3's
// cubic rate limiting, the credits scheme (core/credits.hpp), or
// submission into the ideal global queue (core/global_queue.hpp). The
// gate receives fully-planned requests (replica chosen, priority
// stamped) and decides *when* to hand them to the transport.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "policy/c3.hpp"
#include "sim/simulator.hpp"
#include "store/types.hpp"

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

class DispatchGate {
 public:
  /// Installed by the client: stamps send-time state and transmits.
  using TransmitFn = std::function<void(OutboundRequest&)>;

  virtual ~DispatchGate() = default;

  void set_transmit(TransmitFn fn) { transmit_ = std::move(fn); }

  /// Accepts a planned request; transmits now or later (never drops).
  virtual void offer(OutboundRequest out) = 0;

  /// Response feedback hook (rate/credit controllers use it).
  virtual void on_response(store::ServerId server, const store::ServerFeedback& feedback) {
    (void)server;
    (void)feedback;
  }

  /// Requests currently held back by the gate.
  virtual std::size_t held() const noexcept { return 0; }

  virtual std::string name() const = 0;

 protected:
  void transmit(OutboundRequest& out) { transmit_(out); }

 private:
  TransmitFn transmit_;
};

/// No gating: transmit immediately.
class DirectGate final : public DispatchGate {
 public:
  void offer(OutboundRequest out) override { transmit(out); }
  std::string name() const override { return "direct"; }
};

/// C3's cubic rate limiter: per-server FIFO hold queues drained by a
/// token bucket whose rate adapts cubically to server feedback.
class RateLimitedGate final : public DispatchGate {
 public:
  RateLimitedGate(sim::Simulator& sim, policy::CubicRateController::Config config);

  void offer(OutboundRequest out) override;
  void on_response(store::ServerId server, const store::ServerFeedback& feedback) override;
  std::size_t held() const noexcept override { return held_; }
  std::string name() const override { return "cubic-rate"; }

 private:
  /// Per-server hold state, indexed densely by ServerId.
  struct PerServer {
    std::deque<OutboundRequest> queue;
    bool drain_scheduled = false;
  };

  PerServer& slot(store::ServerId server);
  void drain(store::ServerId server);
  void schedule_drain(store::ServerId server);

  sim::Simulator* sim_;
  policy::CubicRateController controller_;
  std::vector<PerServer> servers_;
  std::size_t held_ = 0;
};

}  // namespace brb::client
