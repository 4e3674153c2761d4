// Correctness suite for `EventQueue`, one hierarchical timing wheel
// over the whole clock with a sorted ready run at its cursor.
//
// The heart of the suite is a randomized differential fuzz against a
// brute-force reference queue: same operation stream in, identical pop
// order, peek times, and cancel outcomes out. Around it sit
// deterministic regressions for the cases a wheel can get wrong —
// bucket-boundary deltas up to the top of the int64 clock, slot 0,
// level rollover, pushes before the cursor — including the
// aligned-cursor inclusive-scan case that the fuzzer originally
// caught, plus generation-reuse checks for ids recycled through
// cancel.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace brb {
namespace {

using sim::EventId;
using sim::EventQueue;
using sim::Time;

/// A queue time on an exact level-0 wheel tick boundary.
Time at_tick(std::int64_t tick) {
  return Time::nanos(tick << EventQueue::kGranularityBits);
}

// ---------------------------------------------------------------------------
// Differential fuzz vs a brute-force reference

/// Reference model: a flat list ordered on demand. Push appends,
/// pop removes the (when, push-order) minimum, cancel flips liveness.
struct RefEvent {
  std::int64_t when_ns = 0;
  std::uint64_t order = 0;
  EventId id = 0;
  bool live = true;
};

class RefQueue {
 public:
  void push(std::int64_t when_ns, EventId id) {
    events_.push_back({when_ns, next_order_++, id, true});
  }

  /// Index of the live minimum, or npos when drained.
  std::size_t min_index() const {
    std::size_t best = npos;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (!events_[i].live) continue;
      if (best == npos || earlier(events_[i], events_[best])) best = i;
    }
    return best;
  }

  bool cancel(EventId id) {
    for (RefEvent& e : events_) {
      if (e.id == id && e.live) {
        e.live = false;
        --live_;
        return true;
      }
    }
    return false;
  }

  void note_push() { ++live_; }
  void note_pop(std::size_t i) {
    events_[i].live = false;
    --live_;
  }
  std::size_t live() const { return live_; }
  const RefEvent& at(std::size_t i) const { return events_[i]; }
  const std::vector<RefEvent>& all() const { return events_; }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  static bool earlier(const RefEvent& a, const RefEvent& b) {
    if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
    return a.order < b.order;
  }

  std::vector<RefEvent> events_;
  std::uint64_t next_order_ = 0;
  std::size_t live_ = 0;
};

TEST(EventQueueWheelFuzz, MatchesHeapReferencePopOrderAndCancels) {
  // Deltas span every routing class: level 0/1 (sub-ms), level 2
  // (hundreds of ms), level 3 (tens of seconds), far future up to
  // 2^61 ns (levels 4-6), and before the cursor (the ready run).
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    EventQueue q;
    RefQueue ref;
    std::vector<EventId> issued;  // cancel targets, live or stale
    std::int64_t now_ns = 0;

    for (int round = 0; round < 60'000; ++round) {
      const double op = rng.uniform();
      if (op < 0.50) {
        std::int64_t when_ns;
        const double d = rng.uniform();
        if (d < 0.45) {
          when_ns = now_ns + rng.uniform_int(0, 1'000'000);
        } else if (d < 0.70) {
          when_ns = now_ns + rng.uniform_int(0, 300'000'000);
        } else if (d < 0.85) {
          when_ns = now_ns + rng.uniform_int(0, 60'000'000'000);
        } else if (d < 0.93) {
          when_ns = now_ns + rng.uniform_int(0, std::int64_t{1} << 61);  // far future
        } else {
          when_ns = now_ns - rng.uniform_int(0, 1'000'000'000);  // before cursor
        }
        const EventId id = q.push(Time::nanos(when_ns), sim::Event{});
        ref.push(when_ns, id);
        ref.note_push();
        issued.push_back(id);
      } else if (op < 0.80) {
        const std::size_t want = ref.min_index();
        if (want != RefQueue::npos) {
          const auto peek = q.peek_time();
          ASSERT_TRUE(peek.has_value());
          ASSERT_EQ(peek->count_nanos(), ref.at(want).when_ns) << "seed " << seed;
        } else {
          ASSERT_FALSE(q.peek_time().has_value());
        }
        auto e = q.pop();
        if (want == RefQueue::npos) {
          ASSERT_FALSE(e.has_value()) << "seed " << seed << " round " << round;
          continue;
        }
        ASSERT_TRUE(e.has_value()) << "seed " << seed << " round " << round;
        ASSERT_EQ(e->when.count_nanos(), ref.at(want).when_ns)
            << "seed " << seed << " round " << round;
        ASSERT_EQ(e->id, ref.at(want).id) << "seed " << seed << " round " << round;
        ref.note_pop(want);
        now_ns = e->when.count_nanos();
      } else if (!issued.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(issued.size()) - 1));
        const bool expect = ref.cancel(issued[pick]);
        ASSERT_EQ(q.cancel(issued[pick]), expect)
            << "seed " << seed << " round " << round;
      }
      ASSERT_EQ(q.size(), ref.live());
    }

    // Drain: the survivors must come out in exact (when, order) order.
    while (auto e = q.pop()) {
      const std::size_t want = ref.min_index();
      ASSERT_NE(want, RefQueue::npos);
      ASSERT_EQ(e->id, ref.at(want).id);
      ref.note_pop(want);
    }
    EXPECT_EQ(ref.live(), 0u);
    EXPECT_TRUE(q.empty());
  }
}

// ---------------------------------------------------------------------------
// Cascade boundary cases

TEST(EventQueueWheel, BoundaryDeltasRouteAndPopInOrder) {
  // One event per routing boundary: the last tick of each level, the
  // first tick of the next, and one past it, up to the largest tick an
  // int64 nanosecond time has; plus a negative (pre-cursor) time. All
  // of them pop in time order.
  EventQueue q;
  const std::int64_t top = std::numeric_limits<std::int64_t>::max() >> EventQueue::kGranularityBits;
  const std::vector<std::int64_t> ticks = {
      0,          1,          255,        256,        257,
      65'535,     65'536,     65'537,     16'777'215, 16'777'216,
      16'777'217, (std::int64_t{1} << 32) - 1, std::int64_t{1} << 32,
      (std::int64_t{1} << 40) + 3, top};
  for (auto it = ticks.rbegin(); it != ticks.rend(); ++it) q.push(at_tick(*it), sim::Event{});
  q.push(Time::nanos(-5), sim::Event{});
  EXPECT_EQ(q.size(), ticks.size() + 1);

  std::vector<std::int64_t> expected = {-5};
  for (const std::int64_t tick : ticks) expected.push_back(tick << EventQueue::kGranularityBits);
  for (const std::int64_t when_ns : expected) {
    auto e = q.pop();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->when.count_nanos(), when_ns);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueWheel, SlotZeroCascadesThroughEveryLevel) {
  // Ticks that are exact powers of the level width land in bucket
  // index 0 (or 1) of their level and cascade down through slot 0 of
  // every lower level — the all-zero-low-bits path.
  EventQueue q;
  std::vector<std::int64_t> ticks = {0, 256, 65'536, 16'777'216, std::int64_t{1} << 32,
                                     std::int64_t{1} << 40, std::int64_t{1} << 48};
  for (auto it = ticks.rbegin(); it != ticks.rend(); ++it) q.push(at_tick(*it), sim::Event{});
  for (const std::int64_t tick : ticks) {
    auto e = q.pop();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->when.count_nanos(), tick << 12);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueWheel, AlignedCursorCascadeScansOwnBucketInclusively) {
  // Regression for the launch bug the differential fuzzer caught: a
  // higher-level cascade lands the cursor exactly on a level-1 bucket
  // boundary while the bucket at the cursor's own index holds a
  // current-rotation event. The level scan must then include that
  // bucket; an exclusive scan only sees it a full rotation later and
  // pops a later event first.
  //
  //   A @ tick 0x1FFF0  -> level 2 (delta >= 2^16)
  //   F @ tick 0x0FFF0  -> level 1; popping it parks the cursor at
  //                        0xFFF0 (unaligned)
  //   B @ tick 0x100F8  -> delta 0x108 -> level 1, bucket index 0
  //
  // The next pop ties level 1 and level 2 at start tick 0x10000; the
  // level-2 cascade wins the tie and moves the cursor to 0x10000 —
  // exactly aligned — while B still sits in level-1 bucket 0. B
  // (0x100F8) must pop before A (0x1FFF0).
  EventQueue q;
  q.push(at_tick(0x1FFF0), sim::Event{});
  q.push(at_tick(0x0FFF0), sim::Event{});

  auto f = q.pop();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->when.count_nanos(), std::int64_t{0x0FFF0} << 12);

  q.push(at_tick(0x100F8), sim::Event{});

  auto b = q.pop();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->when.count_nanos(), std::int64_t{0x100F8} << 12);

  auto a = q.pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->when.count_nanos(), std::int64_t{0x1FFF0} << 12);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueWheel, LevelRolloverWrapsTheLevelZeroRing) {
  // Cross a level-0 ring boundary: park the cursor late in one
  // rotation, then schedule into the next rotation (bucket indices
  // numerically below the cursor's). The circular scan must wrap.
  EventQueue q;
  q.push(at_tick(250), sim::Event{});
  ASSERT_TRUE(q.pop().has_value());  // cursor now at tick 250

  q.push(at_tick(260), sim::Event{});  // next rotation, bucket index 4
  q.push(at_tick(255), sim::Event{});  // this rotation, bucket index 255
  auto first = q.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->when.count_nanos(), std::int64_t{255} << 12);
  auto second = q.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->when.count_nanos(), std::int64_t{260} << 12);
}

// ---------------------------------------------------------------------------
// Generation reuse and cancellation

TEST(EventQueueWheel, CancelledIdsStayStaleAcrossSlotReuse) {
  EventQueue q;
  std::set<EventId> seen;
  // Churn a single slot through many push/cancel generations: every
  // id is distinct, and every stale id keeps failing validation even
  // after its slot is reoccupied.
  EventId previous = 0;
  for (int i = 0; i < 1'000; ++i) {
    const EventId id = q.push(at_tick(10 + i), sim::Event{});
    EXPECT_TRUE(seen.insert(id).second) << "EventId reused at iteration " << i;
    if (previous != 0) {
      EXPECT_FALSE(q.cancel(previous));  // already cancelled; slot reused
    }
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    previous = id;
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueWheel, CancelIsHonoredNearAndFarFuture) {
  EventQueue q;
  const EventId near_id = q.push(at_tick(100), sim::Event{});
  const EventId far_id = q.push(at_tick((std::int64_t{1} << 50) + 7), sim::Event{});
  const EventId kept_id = q.push(at_tick(std::int64_t{1} << 49), sim::Event{});
  EXPECT_EQ(q.size(), 3u);

  EXPECT_TRUE(q.cancel(near_id));
  EXPECT_TRUE(q.cancel(far_id));
  EXPECT_FALSE(q.cancel(far_id));
  EXPECT_EQ(q.size(), 1u);
  auto e = q.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->id, kept_id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
}

}  // namespace
}  // namespace brb
