#include "server/queue_discipline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace brb::server {

void FifoDiscipline::grow() {
  // Double the power-of-two capacity (64 slots at the first push),
  // unrolling the occupied window to the front of the new buffer in
  // FIFO order.
  std::vector<QueuedRead> bigger(ring_.empty() ? 64 : ring_.size() * 2);
  const std::uint64_t count = tail_ - head_;
  for (std::uint64_t i = 0; i < count; ++i) {
    bigger[static_cast<std::size_t>(i)] =
        std::move(ring_[static_cast<std::size_t>(head_ + i) & mask_]);
  }
  ring_ = std::move(bigger);
  mask_ = ring_.size() - 1;
  head_ = 0;
  tail_ = count;
}

void PriorityDiscipline::push(QueuedRead read) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(read);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(read));
  }
  heap_.push_back(HeapItem{slots_[slot].request.priority, next_seq_++, slot});
  sift_up(heap_.size() - 1);
}

std::optional<QueueHead> PriorityDiscipline::peek() const {
  if (heap_.empty()) return std::nullopt;
  return QueueHead{heap_.front().priority, slots_[heap_.front().slot].submit_seq};
}

std::optional<QueuedRead> PriorityDiscipline::pop() {
  if (heap_.empty()) return std::nullopt;
  const std::uint32_t slot = heap_.front().slot;
  QueuedRead out = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return out;
}

void PriorityDiscipline::sift_up(std::size_t i) {
  const HeapItem item = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!later(heap_[parent], item)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

void PriorityDiscipline::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapItem item = heap_[i];
  for (;;) {
    const std::size_t first_child = kArity * i + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (later(heap_[best], heap_[c])) best = c;
    }
    if (!later(item, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = item;
}

QueueDiscipline make_discipline(std::string_view name) {
  if (name == "fifo") return FifoDiscipline{};
  if (name == "priority") return PriorityDiscipline{};
  throw std::invalid_argument("make_discipline: unknown discipline: " + std::string(name));
}

}  // namespace brb::server
