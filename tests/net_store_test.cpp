// Tests for the network model and the data-store substrate
// (partitioners, storage engine).
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "store/partitioner.hpp"
#include "store/storage_engine.hpp"
#include "util/rng.hpp"
#include "deferred.hpp"

namespace brb {
namespace {

using sim::Duration;
using sim::Time;

// ---------------------------------------------------------------------------
// Network

TEST(Network, DeliversAfterOneWayLatency) {
  testutil::Deferred later;
  sim::Simulator simulator;
  net::Network network(simulator, {Duration::micros(50), Duration::zero()}, util::Rng(1));
  Time delivered = Time::zero();
  network.send(0, 1, 100, simulator.callable(later([&] { delivered = simulator.now(); })));
  simulator.run();
  EXPECT_EQ(delivered, Time::micros(50));
}

TEST(Network, CountsMessagesAndBytes) {
  sim::Simulator simulator;
  net::Network network(simulator, {Duration::micros(50), Duration::zero()}, util::Rng(2));
  network.send(0, 1, 100, simulator.callable([] {}));
  network.send(1, 0, 250, simulator.callable([] {}));
  simulator.run();
  EXPECT_EQ(network.stats().messages_sent, 2u);
  EXPECT_EQ(network.stats().bytes_sent, 350u);
}

TEST(Network, JitterStaysWithinBound) {
  testutil::Deferred later;
  sim::Simulator simulator;
  net::Network network(simulator, {Duration::micros(50), Duration::micros(20)}, util::Rng(4));
  std::vector<Time> deliveries;
  for (int i = 0; i < 200; ++i) {
    network.send(0, static_cast<net::NodeId>(i + 1), 10,
                 simulator.callable(later([&] { deliveries.push_back(simulator.now()); })));
  }
  simulator.run();
  for (const Time t : deliveries) {
    EXPECT_GE(t, Time::micros(50));
    EXPECT_LE(t, Time::micros(70));
  }
}

TEST(Network, PerPairFifoEvenWithJitter) {
  testutil::Deferred later;
  sim::Simulator simulator;
  net::Network network(simulator, {Duration::micros(50), Duration::micros(40)}, util::Rng(5));
  std::vector<int> order;
  // Staggered sends on one pair; jitter could reorder without the
  // FIFO reservation.
  for (int i = 0; i < 50; ++i) {
    simulator.schedule_at(Time::micros(i), later([&, i] {
      network.send(3, 4, 10, simulator.callable(later([&order, i] { order.push_back(i); })));
    }));
  }
  simulator.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Network, RejectsNegativeLatency) {
  sim::Simulator simulator;
  EXPECT_THROW(net::Network(simulator,
                            {Duration::micros(50) - Duration::micros(100), Duration::zero()},
                            util::Rng(6)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// hash_key / RingPartitioner

TEST(HashKey, DeterministicAndMixing) {
  EXPECT_EQ(store::hash_key(42), store::hash_key(42));
  std::set<std::uint64_t> hashes;
  for (store::KeyId k = 0; k < 10000; ++k) hashes.insert(store::hash_key(k));
  EXPECT_EQ(hashes.size(), 10000u);  // no collisions on small range
}

TEST(RingPartitioner, PaperTopology) {
  store::RingPartitioner partitioner(9, 3);
  EXPECT_EQ(partitioner.num_groups(), 9u);
  EXPECT_EQ(partitioner.num_servers(), 9u);
  EXPECT_EQ(partitioner.replication_factor(), 3u);
  // Group g holds servers {g, g+1, g+2 mod 9}.
  const auto& group7 = partitioner.replicas_of(7);
  EXPECT_EQ(group7, (std::vector<store::ServerId>{7, 8, 0}));
}

TEST(RingPartitioner, EveryServerInExactlyRGroups) {
  store::RingPartitioner partitioner(9, 3);
  std::map<store::ServerId, int> membership;
  for (store::GroupId g = 0; g < partitioner.num_groups(); ++g) {
    for (const store::ServerId s : partitioner.replicas_of(g)) ++membership[s];
  }
  ASSERT_EQ(membership.size(), 9u);
  for (const auto& [server, count] : membership) EXPECT_EQ(count, 3);
}

TEST(RingPartitioner, KeyGroupsBalanced) {
  store::RingPartitioner partitioner(9, 3);
  std::map<store::GroupId, int> counts;
  for (store::KeyId k = 0; k < 90000; ++k) ++counts[partitioner.group_of(k)];
  for (const auto& [group, count] : counts) {
    EXPECT_NEAR(count, 10000, 600) << "group " << group;
  }
}

TEST(RingPartitioner, ReplicasForKeyConsistent) {
  store::RingPartitioner partitioner(9, 3);
  for (store::KeyId k = 0; k < 100; ++k) {
    EXPECT_EQ(partitioner.replicas_for_key(k),
              partitioner.replicas_of(partitioner.group_of(k)));
  }
}

TEST(RingPartitioner, ReplicationOne) {
  store::RingPartitioner partitioner(3, 1);
  for (store::GroupId g = 0; g < 3; ++g) {
    EXPECT_EQ(partitioner.replicas_of(g).size(), 1u);
  }
}

TEST(RingPartitioner, FullReplication) {
  store::RingPartitioner partitioner(3, 3);
  for (store::GroupId g = 0; g < 3; ++g) {
    EXPECT_EQ(partitioner.replicas_of(g).size(), 3u);
  }
}

TEST(RingPartitioner, RejectsBadConfig) {
  EXPECT_THROW(store::RingPartitioner(0, 1), std::invalid_argument);
  EXPECT_THROW(store::RingPartitioner(3, 0), std::invalid_argument);
  EXPECT_THROW(store::RingPartitioner(3, 4), std::invalid_argument);
  store::RingPartitioner ok(3, 2);
  EXPECT_THROW(ok.replicas_of(3), std::out_of_range);
}

// ---------------------------------------------------------------------------
// StorageEngine

TEST(StorageEngine, PutMetaAndLookup) {
  store::StorageEngine engine;
  engine.put_meta(1, 100);
  EXPECT_EQ(engine.size_of(1), 100u);
  EXPECT_FALSE(engine.size_of(2).has_value());
  EXPECT_EQ(engine.version(), 1u);
}

TEST(StorageEngine, OverwriteAdjustsBytes) {
  // An overwrite replaces the size, over a written key and over a base
  // key alike.
  const std::vector<std::uint32_t> base = {10, 20, 30};
  store::StorageEngine engine;
  engine.attach_base(base);
  engine.put_meta(1, 100);
  engine.put_meta(1, 250);
  EXPECT_EQ(engine.size_of(1), 250u);
  engine.put_meta(2, 7);
  EXPECT_EQ(engine.size_of(2), 7u);
  EXPECT_EQ(engine.size_of(0), 10u);
  EXPECT_EQ(engine.version(), 3u);
}

TEST(StorageEngine, ScatteredKeysPastAllowanceStayCorrect) {
  // Keys scattered far past the base's end land in the write table;
  // each is found, its neighbours stay absent, and the base still
  // answers below its end.
  const std::vector<std::uint32_t> base(64, 5);
  store::StorageEngine engine;
  engine.attach_base(base);
  const store::KeyId stride = 50'000;
  for (store::KeyId k = 1; k <= 40; ++k) {
    engine.put_meta(k * stride + 3, static_cast<std::uint32_t>(k));
  }
  for (store::KeyId k = 1; k <= 40; ++k) {
    EXPECT_EQ(engine.size_of(k * stride + 3), static_cast<std::uint32_t>(k));
    EXPECT_FALSE(engine.size_of(k * stride + 4).has_value());
  }
  EXPECT_EQ(engine.size_of(63), 5u);
  EXPECT_FALSE(engine.size_of(64).has_value());
}

TEST(StorageEngine, TableKeysSurviveEveryRehash) {
  // After every insert each earlier key must still be found, across
  // each doubling (16, 32, ... slots at 3/4 load), for random and for
  // consecutive keys.
  for (const bool consecutive : {false, true}) {
    store::StorageEngine engine;
    std::vector<store::KeyId> keys;
    util::Rng rng(7);
    for (std::uint32_t i = 0; i < 700; ++i) {
      const store::KeyId key = consecutive ? store::KeyId{i} + 1'000'000 : rng.next_u64() >> 1;
      engine.put_meta(key, i);
      keys.push_back(key);
      for (std::uint32_t j = 0; j <= i; ++j) {
        ASSERT_EQ(engine.size_of(keys[j]), j) << "after insert " << i;
      }
    }
    EXPECT_FALSE(engine.size_of(999'999).has_value());
  }
}

TEST(StorageEngine, SharedBaseIsolatesReplicas) {
  // Two replicas share one base (the write-mix shape). A write lands
  // only in the writing replica's table; the other replica and the
  // base itself keep the original size.
  const std::vector<std::uint32_t> base = {100, 200, 300, 400};
  const std::vector<std::uint32_t> original = base;
  store::StorageEngine a;
  store::StorageEngine b;
  a.attach_base(base);
  b.attach_base(base);
  a.put_meta(2, 9000);
  EXPECT_EQ(a.size_of(2), 9000u);
  EXPECT_EQ(b.size_of(2), 300u);
  EXPECT_EQ(a.size_of(1), 200u);
  EXPECT_EQ(b.version(), 0u);
  b.put_meta(3, 1);
  EXPECT_EQ(a.size_of(3), 400u);
  EXPECT_EQ(b.size_of(3), 1u);
  EXPECT_EQ(base, original);
}

// ---------------------------------------------------------------------------
// StorageEngine differential fuzz vs a std::map reference

/// size_of agrees with the reference for `key`.
::testing::AssertionResult agrees(const store::StorageEngine& engine,
                                  const std::map<store::KeyId, std::uint32_t>& ref,
                                  store::KeyId key) {
  const auto it = ref.find(key);
  const std::optional<std::uint32_t> want =
      it == ref.end() ? std::nullopt : std::optional<std::uint32_t>(it->second);
  const std::optional<std::uint32_t> got = engine.size_of(key);
  if (got == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "key " << key << ": size_of " << (got ? std::to_string(*got) : "absent")
         << ", reference " << (want ? std::to_string(*want) : "absent");
}

TEST(StorageEngineFuzz, MatchesMapReference) {
  // Runs with no base and with an attached base; the reference is the
  // base overlaid by the writes. Keys come from inside the base, just
  // past its end, raw 64-bit values, and overwrites of written keys;
  // sizes include 0 and UINT32_MAX. Each put_meta must advance the
  // version by exactly one and lookups must leave it alone.
  constexpr std::uint32_t kHuge = std::numeric_limits<std::uint32_t>::max();
  constexpr std::int64_t kBaseKeys = 10'000;
  for (const bool with_base : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      util::Rng rng(seed);
      std::vector<std::uint32_t> base;
      std::map<store::KeyId, std::uint32_t> ref;
      store::StorageEngine engine;
      if (with_base) {
        for (std::int64_t key = 0; key < kBaseKeys; ++key) {
          base.push_back(key % 97 == 0 ? 0 : static_cast<std::uint32_t>(rng.uniform_int(1, 4096)));
          ref.emplace(static_cast<store::KeyId>(key), base.back());
        }
        engine.attach_base(base);
      }
      const std::vector<std::uint32_t> original = base;
      const std::string where =
          "base " + std::to_string(with_base) + " seed " + std::to_string(seed);
      std::vector<store::KeyId> written;

      for (int round = 0; round < 40'000; ++round) {
        const double op = rng.uniform();
        store::KeyId key = 0;
        if (op < 0.35) {
          key = static_cast<store::KeyId>(rng.uniform_int(0, kBaseKeys - 1));
        } else if (op < 0.55) {
          key = static_cast<store::KeyId>(rng.uniform_int(kBaseKeys, 4 * kBaseKeys));
        } else if (op < 0.75) {
          key = rng.next_u64();
        } else if (!written.empty()) {
          key = written[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(written.size()) - 1))];
        }
        const double pick = rng.uniform();
        std::uint32_t size = 0;
        if (pick < 0.05) {
          size = kHuge;
        } else if (pick < 0.07) {
          size = kHuge - 1;
        } else if (pick >= 0.10) {
          size = static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 20));
        }

        const std::uint64_t version = engine.version();
        engine.put_meta(key, size);
        ASSERT_EQ(engine.version(), version + 1) << where << " round " << round;
        ref[key] = size;
        written.push_back(key);

        ASSERT_TRUE(agrees(engine, ref, key)) << where << " round " << round;
        ASSERT_TRUE(agrees(engine, ref, rng.next_u64())) << where << " round " << round;
        const auto near = static_cast<store::KeyId>(rng.uniform_int(0, 4 * kBaseKeys + 64));
        ASSERT_TRUE(agrees(engine, ref, near)) << where << " round " << round;
        ASSERT_EQ(engine.version(), version + 1) << where << " round " << round;
      }
      for (const auto& entry : ref) ASSERT_TRUE(agrees(engine, ref, entry.first)) << where;
      ASSERT_EQ(base, original) << where;
    }
  }
}

}  // namespace
}  // namespace brb
