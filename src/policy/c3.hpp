// C3: adaptive replica selection (Suresh et al., NSDI 2015).
//
// The paper's state-of-the-art comparator. Re-implemented from the
// published description (the original is closed source):
//
//  * Replica ranking. Each client maintains, per server s, EWMAs of the
//    measured response time R̄_s, of the server-reported queue length
//    q̄_s, and of the server-reported service rate µ̄_s. The queue-size
//    estimate compensates for concurrency:
//        q̂_s = 1 + os_s * n + q̄_s
//    (os_s = this client's outstanding requests to s, n = number of
//    clients). Replicas are ranked by the cubic scoring function
//        Ψ_s = R̄_s − 1/µ̄_s + (q̂_s)^3 / µ̄_s
//    and the minimum wins. The cubic exponent penalizes long queues
//    super-linearly, avoiding herd behavior. The ranking is
//    ctrl::c3_score over the client's ctrl::SignalTable; C3Config
//    carries its knobs (the EWMA weight goes to the table).
//
//  * Cubic rate control. Each (client, server) pair has a sending-rate
//    cap adapted like TCP CUBIC: multiplicative decrease when the
//    server's reported queue grows while we are transmitting above the
//    receive rate, cubic recovery toward the previous maximum
//    otherwise. The gate delays (never drops) requests that exceed the
//    current rate (client::DispatchGate's cubic law).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace brb::policy {

struct C3Config {
  /// Weight of the newest sample in the EWMAs (0..1].
  double ewma_alpha = 0.5;
  /// Exponent b of the queue-size penalty (the paper uses b = 3).
  double queue_exponent = 3.0;
  /// Initial per-server service-time guess until feedback arrives.
  sim::Duration prior_service_time = sim::Duration::micros(285);
};

/// Knobs of C3's CUBIC-style sending-rate law (one instance per
/// client, applied to each of its servers separately).
///
/// Decisions are made per measurement window: if the transmit rate
/// sustainedly exceeds the receive rate (the server is falling behind),
/// the pair's cap decreases multiplicatively; otherwise it grows along
/// the cubic curve toward the pre-decrease maximum and beyond.
struct CubicRateConfig {
  /// Initial per-server rate cap, requests/second. 0 means "resolve
  /// to a fair share of server capacity" — the experiment runner
  /// substitutes capacity/num_clients before construction, lowering
  /// min_rate to that share when it is smaller.
  double initial_rate = 0.0;
  /// Multiplicative decrease factor on congestion.
  double beta = 0.2;
  /// Cubic growth coefficient (rate units per second^3).
  double scaling = 250'000.0;
  /// Ceiling on the rate cap.
  double max_rate = 1e7;
  /// Floor on the rate cap (keeps recovery possible).
  double min_rate = 10.0;
  /// Token bucket depth (burst tolerance), in requests.
  double burst = 8.0;
  /// Rate measurement / decision window (C3 uses 20 ms).
  sim::Duration window = sim::Duration::millis(20);
  /// Send rate must exceed receive rate by this factor to count as
  /// congestion. Generous: pipeline fill during bursts makes
  /// send > receive transiently without any server distress.
  double congestion_tolerance = 1.4;
  /// Minimum sends in a window before a congestion verdict.
  std::uint32_t min_window_samples = 8;

  /// Throws std::invalid_argument unless the knobs are usable
  /// (initial_rate must already be resolved).
  void validate() const;
};

/// One (client, server) pair's CUBIC rate state. The token bucket it
/// refills lives with the caller (client::DispatchGate's slot); this
/// is the refill rate and the window that adapts it.
struct CubicRate {
  double rate = 0.0;       // current cap, req/s
  double rate_max = 0.0;   // pre-decrease maximum (CUBIC W_max)
  sim::Time epoch_start;   // time of last decrease
  sim::Time window_start;  // current measurement window
  std::uint32_t sent_in_window = 0;
  std::uint32_t received_in_window = 0;

  /// A pair first touched at `now`: initial rate, window opening.
  static CubicRate open(const CubicRateConfig& config, sim::Time now);

  /// Feedback hook: counts a response and, once the window has run its
  /// length, closes it and adapts the rate.
  void on_response(const CubicRateConfig& config, sim::Time now);

 private:
  void close_window(const CubicRateConfig& config, sim::Time now);
};

}  // namespace brb::policy
