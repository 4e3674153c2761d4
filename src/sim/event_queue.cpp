#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

namespace brb::sim {

// Slot generations: even = free, odd = occupied. acquire/release each
// bump the counter, so any id captured before a release fails the
// generation check afterwards — stale cancels are always rejected.
//
// Wheel invariants (checked by event_queue_wheel_test's differential
// fuzz against a brute-force reference):
//   W1  outside ensure_ready, every wheel-resident event has
//       tick(when) > cursor_tick_; pushes at or before the cursor's
//       tick merge into the ready run, which therefore only holds
//       events earlier than every wheel event.
//   W2  a level-l bucket only holds events whose tick falls inside
//       that bucket's current rotation window; the bucket is cascaded
//       (l > 0) or drained (l == 0) before the cursor passes it.
//   W3  the ready run holds the drained bucket at cursor_tick_ plus
//       every later push at or before that tick, sorted by (when, seq),
//       so slot-internal order stays exact.

namespace {
constexpr std::uint32_t kSlotMask = EventQueue::kSlotsPerLevel - 1;
constexpr int kWordsPerLevel = EventQueue::kSlotsPerLevel / 64;
constexpr std::int64_t kNoHint = std::numeric_limits<std::int64_t>::max();
}  // namespace

EventQueue::EventQueue() {
  head_.fill(kNil);
  tail_.fill(kNil);
  bitmap_.fill(0);
  level_hint_.fill(kNoHint);
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  ++s.generation;  // odd -> even: free
  free_slots_.push_back(slot);
}

void EventQueue::place(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::int64_t tick = tick_of(s.when);
  if (tick <= cursor_tick_) {
    // No wheel event is this early (W1): join the sorted run (W3).
    ready_insert(slot);
    return;
  }
  wheel_link(slot, tick);
}

void EventQueue::wheel_link(std::uint32_t slot, std::int64_t tick) {
  Slot& s = slots_[slot];
  const std::int64_t delta = tick - cursor_tick_;
  int level = 0;
  while (delta >= (std::int64_t{1} << (kLevelBits * (level + 1)))) ++level;
  const auto bucket = static_cast<std::uint16_t>((tick >> (kLevelBits * level)) & kSlotMask);
  const std::size_t idx = static_cast<std::size_t>(level) * kSlotsPerLevel + bucket;
  s.prev = tail_[idx];
  s.next = kNil;
  if (tail_[idx] == kNil) {
    head_[idx] = slot;
  } else {
    slots_[tail_[idx]].next = slot;
  }
  tail_[idx] = slot;
  bitmap_[static_cast<std::size_t>(level) * kWordsPerLevel + (bucket >> 6)] |=
      std::uint64_t{1} << (bucket & 63);
  const std::int64_t start =
      (tick >> (kLevelBits * level)) << (kLevelBits * level);
  if (start < level_hint_[level]) level_hint_[level] = start;
  s.in_ready = false;
  s.level = static_cast<std::uint8_t>(level);
  s.bucket = bucket;
  ++wheel_count_;
}

void EventQueue::wheel_unlink(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  const std::size_t idx = static_cast<std::size_t>(s.level) * kSlotsPerLevel + s.bucket;
  if (s.prev == kNil) {
    head_[idx] = s.next;
  } else {
    slots_[s.prev].next = s.next;
  }
  if (s.next == kNil) {
    tail_[idx] = s.prev;
  } else {
    slots_[s.next].prev = s.prev;
  }
  if (head_[idx] == kNil) {
    bitmap_[static_cast<std::size_t>(s.level) * kWordsPerLevel + (s.bucket >> 6)] &=
        ~(std::uint64_t{1} << (s.bucket & 63));
  }
  --wheel_count_;
}

void EventQueue::ready_insert(std::uint32_t slot) {
  if (ready_live_ == 0) {
    // A spent run (popped or cancelled): start over rather than grow.
    ready_.clear();
    ready_pos_ = 0;
  }
  Slot& s = slots_[slot];
  const Ready r{s.when, s.seq, slot, s.generation};
  const auto begin = ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_);
  const auto pos = std::upper_bound(begin, ready_.end(), r, [](const Ready& a, const Ready& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  });
  ready_.insert(pos, r);
  s.in_ready = true;
  ++ready_live_;
}

int EventQueue::next_occupied(int level, std::uint32_t from, bool inclusive) const noexcept {
  // Circular find-first-set over the level's bitmap words, starting at
  // bit `from`. Returns the circular distance in buckets, or -1.
  const std::uint64_t* bm = &bitmap_[static_cast<std::size_t>(level) * kWordsPerLevel];
  if (!inclusive) from = (from + 1) & kSlotMask;
  const std::uint32_t word = from >> 6;
  const std::uint32_t bit = from & 63;
  int dist = 0;
  std::uint64_t m = bm[word] >> bit;
  if (m != 0) return std::countr_zero(m);
  dist = static_cast<int>(64 - bit);
  for (int k = 1; k < kWordsPerLevel; ++k) {
    m = bm[(word + k) & (kWordsPerLevel - 1)];
    if (m != 0) return dist + std::countr_zero(m);
    dist += 64;
  }
  // Full circle: the low bits of the starting word, before `from`.
  m = bit != 0 ? (bm[word] & ((std::uint64_t{1} << bit) - 1)) : 0;
  if (m != 0) return dist + std::countr_zero(m);
  return -1;
}

void EventQueue::drain_bucket(std::int64_t tick) {
  cursor_tick_ = tick;
  const auto bucket = static_cast<std::uint16_t>(tick & kSlotMask);
  const std::size_t idx = bucket;  // level 0
  std::uint32_t slot = head_[idx];
  head_[idx] = kNil;
  tail_[idx] = kNil;
  bitmap_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  while (slot != kNil) {
    Slot& s = slots_[slot];
    const std::uint32_t next = s.next;
    --wheel_count_;
    ready_insert(slot);
    slot = next;
  }
}

void EventQueue::cascade_bucket(int level, std::uint16_t bucket) {
  const std::size_t idx = static_cast<std::size_t>(level) * kSlotsPerLevel + bucket;
  std::uint32_t slot = head_[idx];
  head_[idx] = kNil;
  tail_[idx] = kNil;
  bitmap_[static_cast<std::size_t>(level) * kWordsPerLevel + (bucket >> 6)] &=
      ~(std::uint64_t{1} << (bucket & 63));
  while (slot != kNil) {
    Slot& s = slots_[slot];
    const std::uint32_t next = s.next;
    --wheel_count_;
    // Relink below: delta is now < this level's bucket width (W2), so
    // the event lands at a strictly lower level (or the cursor tick's
    // own level-0 bucket).
    wheel_link(slot, tick_of(s.when));
    slot = next;
  }
}

void EventQueue::skip_dead_ready() {
  while (ready_pos_ < ready_.size()) {
    const Ready& r = ready_[ready_pos_];
    if (slots_[r.slot].generation == r.generation) break;
    ++ready_pos_;  // cancelled while in the run; slot already released
  }
}

void EventQueue::ensure_ready() {
  while (ready_live_ == 0 && wheel_count_ > 0) {
    // Advance the cursor to the earliest wheel content: pick the
    // minimum of the next occupied level-0 bucket (inclusive of the
    // cursor's own bucket) and the start of the next occupied bucket
    // at every higher level; equal ticks cascade the highest level
    // first so its contents can join the lower buckets before those
    // are processed.
    std::int64_t best_tick = kNoHint;
    int best_level = 0;
    if (level_hint_[0] != kNoHint) {
      const std::uint32_t i0 = static_cast<std::uint32_t>(cursor_tick_) & kSlotMask;
      const int d0 = next_occupied(0, i0, /*inclusive=*/true);
      if (d0 >= 0) {
        best_tick = cursor_tick_ + d0;
        level_hint_[0] = best_tick;
      } else {
        level_hint_[0] = kNoHint;
      }
    }
    for (int level = 1; level < kLevels; ++level) {
      // The hint is a lower bound on this level's earliest bucket
      // start (kNoHint only when the level is empty); when it cannot
      // beat (or tie) the best candidate, the level's bitmap scan is
      // skipped entirely. Ties must scan: the tie-break below needs the
      // true start to cascade the higher level first.
      if (level_hint_[level] == kNoHint || level_hint_[level] > best_tick) continue;
      const int shift = kLevelBits * level;
      const std::int64_t cb = cursor_tick_ >> shift;
      const std::uint32_t il = static_cast<std::uint32_t>(cb) & kSlotMask;
      // When the cursor sits exactly on this level's bucket boundary
      // (e.g. just advanced there by a higher-level cascade), the
      // bucket at the cursor's own index can hold current-rotation
      // events and must be scanned inclusively; a next-rotation event
      // cannot be in it (a push at an aligned cursor with delta >=
      // 2^(bits*(l+1)) always lands one level up), so distance 0 is
      // unambiguous. Off the boundary, the own index can only hold
      // next-rotation events, so the scan starts one past it.
      const bool aligned = (cursor_tick_ & ((std::int64_t{1} << shift) - 1)) == 0;
      const int dl = next_occupied(level, il, /*inclusive=*/aligned);
      if (dl < 0) {
        level_hint_[level] = kNoHint;
        continue;
      }
      const std::int64_t bucket_num = cb + (aligned ? dl : 1 + dl);
      const std::int64_t start_tick = bucket_num << shift;
      level_hint_[level] = start_tick;
      if (start_tick < best_tick || (start_tick == best_tick && level > best_level)) {
        best_tick = start_tick;
        best_level = level;
      }
    }
    assert(best_tick != kNoHint && "wheel_count_ > 0 but no occupied bucket");
    if (best_level == 0) {
      drain_bucket(best_tick);
    } else {
      cursor_tick_ = best_tick;
      cascade_bucket(best_level,
                     static_cast<std::uint16_t>((best_tick >> (kLevelBits * best_level)) &
                                                kSlotMask));
    }
  }
  skip_dead_ready();
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffff'ffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if ((generation & 1u) == 0 || slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.generation != generation) return false;
  if (s.in_ready) {
    // The run's entry goes stale via the generation bump and is
    // skipped lazily.
    --ready_live_;
  } else {
    wheel_unlink(slot);
  }
  --live_;
  release_slot(slot);
  return true;
}

std::optional<Time> EventQueue::peek_time() {
  ensure_ready();
  if (ready_live_ == 0) return std::nullopt;
  return ready_[ready_pos_].when;
}

std::optional<EventQueue::Entry> EventQueue::pop() {
  ensure_ready();
  if (ready_live_ == 0) return std::nullopt;
  --ready_live_;
  const Ready& r = ready_[ready_pos_++];
  Slot& s = slots_[r.slot];
  const Entry out{r.when, make_id(r.slot, s.generation), s.event};
  release_slot(r.slot);
  --live_;
  return out;
}

}  // namespace brb::sim
