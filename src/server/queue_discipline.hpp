// Server-side queue disciplines.
//
// The task-oblivious baseline serves FIFO; BRB servers serve by the
// client-assigned priority (lower value first, FIFO within equal
// priorities — the stable tie-break keeps runs deterministic). The two
// form a closed set: `QueueDiscipline` is a variant over them, owned by
// value by each private-queue server and by the ideal model's groups.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "sim/time.hpp"
#include "store/types.hpp"

namespace brb::server {

/// A read waiting for a core. `submit_seq` is a global submission
/// counter stamped by multi-queue schedulers (the ideal model) to give
/// deterministic FIFO tie-breaking across queues; private per-server
/// queues may leave it zero.
struct QueuedRead {
  store::ReadRequest request;
  sim::Time enqueued_at;
  std::uint64_t submit_seq = 0;
};

/// What the next pop() would return, for cross-queue comparison.
struct QueueHead {
  store::Priority priority = 0.0;
  std::uint64_t submit_seq = 0;
};

/// First-in first-out over a growable power-of-two ring. The ring is
/// allocated at the first push, so a queue that never backs up costs
/// no heap. peek() reports priority 0, so cross-queue comparison
/// reduces to submission order.
class FifoDiscipline {
 public:
  void push(QueuedRead read) {
    if (tail_ - head_ == ring_.size()) grow();
    ring_[static_cast<std::size_t>(tail_++) & mask_] = std::move(read);
  }
  std::optional<QueuedRead> pop() {
    if (head_ == tail_) return std::nullopt;
    return std::move(ring_[static_cast<std::size_t>(head_++) & mask_]);
  }
  std::optional<QueueHead> peek() const {
    if (head_ == tail_) return std::nullopt;
    return QueueHead{0.0, ring_[static_cast<std::size_t>(head_) & mask_].submit_seq};
  }
  std::size_t size() const noexcept { return static_cast<std::size_t>(tail_ - head_); }

 private:
  void grow();

  std::vector<QueuedRead> ring_;
  std::size_t mask_ = 0;
  std::uint64_t head_ = 0;  // pop side
  std::uint64_t tail_ = 0;  // push side
};

/// Minimum priority value first; FIFO among equals.
///
/// Same layout trick as the event queue: the heap orders 24-byte POD
/// keys while the 88-byte `QueuedRead` payloads sit still in a slot
/// table, so sifts never move a request. (priority, seq) is a total
/// order, making pop order independent of heap arity/layout.
class PriorityDiscipline {
 public:
  void push(QueuedRead read);
  std::optional<QueuedRead> pop();
  std::optional<QueueHead> peek() const;
  std::size_t size() const noexcept { return heap_.size(); }

 private:
  static constexpr std::size_t kArity = 4;

  struct HeapItem {
    store::Priority priority;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool later(const HeapItem& a, const HeapItem& b) noexcept {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq > b.seq;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<HeapItem> heap_;
  std::vector<QueuedRead> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

using QueueDiscipline = std::variant<FifoDiscipline, PriorityDiscipline>;

inline void push(QueueDiscipline& queue, QueuedRead read) {
  std::visit([&read](auto& q) { q.push(std::move(read)); }, queue);
}
inline std::optional<QueuedRead> pop(QueueDiscipline& queue) {
  return std::visit([](auto& q) { return q.pop(); }, queue);
}
inline std::optional<QueueHead> peek(const QueueDiscipline& queue) {
  return std::visit([](const auto& q) { return q.peek(); }, queue);
}
inline std::size_t size(const QueueDiscipline& queue) {
  return std::visit([](const auto& q) { return q.size(); }, queue);
}

/// "fifo" or "priority"; throws std::invalid_argument otherwise.
QueueDiscipline make_discipline(std::string_view name);

}  // namespace brb::server
