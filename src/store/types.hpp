// Shared protocol types for the replicated data store. The identifier
// types (ClientId, ServerId, TenantId, ...) live in store/ids.hpp.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "store/ids.hpp"

namespace brb::store {

/// Scheduling priority attached to a read request. Lower values are
/// served first. BRB policies encode costs/slacks (in nanoseconds of
/// expected work) here; FIFO encodes the arrival timestamp.
using Priority = double;

/// Server-side load feedback piggybacked on every response (the
/// mechanism C3 relies on; free for BRB to observe as well).
struct ServerFeedback {
  /// Requests waiting in the server queue when the response was sent.
  std::uint32_t queue_length = 0;
  /// EWMA of the server's observed service rate, requests/second.
  double service_rate = 0.0;
  /// Actual service duration of this request.
  sim::Duration service_time = sim::Duration::zero();
};

/// A read (or write) for one key, stamped with scheduling metadata.
/// Writes fan out to every replica of the key's group and carry the
/// new value size; the serving replica resizes its stored value at
/// completion. The struct keeps its historical name — the scheduling
/// path (priorities, queues, credits) treats both kinds identically.
struct ReadRequest {
  RequestId request_id = 0;
  TaskId task_id = 0;
  KeyId key = 0;
  ClientId client = 0;
  Priority priority = 0.0;
  /// Client-forecast service cost (used by cost-aware disciplines).
  sim::Duration expected_cost = sim::Duration::zero();
  /// Time the client handed the request to the transport.
  sim::Time sent_at;
  bool is_write = false;
  /// New stored size installed by a write (ignored for reads).
  std::uint32_t write_size = 0;
};

/// Completion record delivered back to the client.
struct ReadResponse {
  RequestId request_id = 0;
  TaskId task_id = 0;
  KeyId key = 0;
  ClientId client = 0;
  ServerId server = 0;
  /// Payload bytes returned; 0 for a write acknowledgement.
  std::uint32_t value_size = 0;
  bool is_write = false;
  ServerFeedback feedback;
};

/// (server, value) pairs, ascending by server id: the wire format of
/// credits demand reports and grants.
using CreditList = std::vector<std::pair<ServerId, double>>;

/// Approximate wire sizes for traffic accounting (header + key for a
/// request; header + value payload for a response). Writes invert the
/// payload direction: the request carries the new value, the response
/// is a bare acknowledgement.
constexpr std::uint32_t kRequestWireBytes = 64;
constexpr std::uint32_t kResponseHeaderBytes = 64;

/// Wire bytes for one outbound request (reads: header only; writes:
/// header + payload being written).
inline std::uint32_t request_wire_bytes(const ReadRequest& request) noexcept {
  return kRequestWireBytes + (request.is_write ? request.write_size : 0);
}

}  // namespace brb::store
