// Network messages: the payloads of delivery events.
//
// A message is an immutable snapshot of what its sender put on the
// wire, taken at send. Every message of a run lives in the simulator's
// one `MessagePool`, and a delivery event's payload is its slot, so a
// send copies the data once and moves no closure. Slots are recycled
// through a free list, and a slot's credit list keeps its capacity, so
// a warm pool allocates nothing per message.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "store/types.hpp"

namespace brb::net {

struct Message {
  store::ReadRequest request;    // request delivery, queue submit
  store::GroupId group = 0;      // queue submit: the request's replica group
  store::ServerId server = 0;    // queue submit: the replica a write is pinned to
  store::ReadResponse response;  // response delivery
  store::ClientId client = 0;    // demand report: the reporting client
  store::CreditList credits;     // demand report, grant
};

/// Slots live in fixed chunks and never move, so a handler may keep
/// its message while it sends others.
class MessagePool {
 public:
  std::uint32_t alloc() {
    if (free_.empty()) {
      if (allocated_ % kChunk == 0) chunks_.push_back(std::make_unique<Chunk>());
      return allocated_++;
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  void free(std::uint32_t slot) { free_.push_back(slot); }
  Message& operator[](std::uint32_t slot) noexcept {
    return (*chunks_[slot / kChunk])[slot % kChunk];
  }

 private:
  static constexpr std::uint32_t kChunk = 64;
  using Chunk = std::array<Message, kChunk>;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t allocated_ = 0;
  std::vector<std::uint32_t> free_;
};

}  // namespace brb::net
