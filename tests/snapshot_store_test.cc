// The snapshot layer: bit-packed DoorMask snapshots, the boundary flip
// index, delta-vs-full Graph_Update builds, and the budgeted LRU
// SnapshotStore (eviction order and correctness, pinned readers, an
// 8-thread pin/evict hammer the tsan CI preset race-checks).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/venue_gen.h"
#include "itgraph/checkpoints.h"
#include "itgraph/door_mask.h"
#include "itgraph/graph_update.h"
#include "itgraph/itgraph.h"
#include "itgraph/snapshot_store.h"

namespace itspq {
namespace {

template <typename T>
T ValueOrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

struct StoreWorld {
  std::unique_ptr<Venue> venue;
  std::unique_ptr<ItGraph> graph;
  CheckpointSet cps;
};

StoreWorld MakeWorld(uint64_t seed = 42, int checkpoint_count = 6) {
  MallConfig mall_config = MallConfig::Paper();
  mall_config.floors = 1;
  mall_config.seed = seed;
  Venue mall = ValueOrDie(GenerateMall(mall_config), "GenerateMall");

  AtiGenConfig ati_config;
  ati_config.checkpoint_count = checkpoint_count;
  ati_config.seed = seed + 1;
  StoreWorld world;
  world.venue = std::make_unique<Venue>(
      ValueOrDie(AssignTemporalVariations(mall, ati_config),
                 "AssignTemporalVariations"));
  world.graph = std::make_unique<ItGraph>(
      ValueOrDie(ItGraph::Build(*world.venue), "ItGraph::Build"));
  world.cps = CheckpointSet::FromGraph(*world.graph);
  return world;
}

size_t SnapBytes(const GraphSnapshot& snap) { return snap.TotalBytes(); }

TEST(DoorMaskTest, SetResetFlipCountRoundTrip) {
  DoorMask mask(130);  // spans three words, with a ragged tail
  EXPECT_EQ(mask.size(), 130u);
  EXPECT_EQ(mask.Count(), 0u);
  for (DoorId d : {0, 1, 63, 64, 65, 127, 128, 129}) {
    EXPECT_FALSE(mask.Test(d));
    mask.Set(d);
    EXPECT_TRUE(mask.Test(d));
  }
  EXPECT_EQ(mask.Count(), 8u);
  mask.Reset(64);
  EXPECT_FALSE(mask.Test(64));
  EXPECT_EQ(mask.Count(), 7u);
  EXPECT_FALSE(mask.Flip(63));
  EXPECT_TRUE(mask.Flip(64));
  EXPECT_EQ(mask.Count(), 7u);

  DoorMask other(130);
  for (DoorId d : {0, 1, 64, 65, 127, 128, 129}) other.Set(d);
  EXPECT_EQ(mask, other);
  other.Flip(2);
  EXPECT_NE(mask, other);
  // 8x packing: 130 doors fit three 64-bit words.
  EXPECT_EQ(mask.MemoryUsage(), 3 * sizeof(uint64_t));
}

TEST(GraphSnapshotTest, BitPackedMaskMatchesAtiProbes) {
  StoreWorld world = MakeWorld();
  const size_t n = world.graph->NumDoors();
  ASSERT_GT(n, 0u);
  for (size_t i = 0; i < world.cps.NumIntervals(); ++i) {
    const GraphSnapshot snap = BuildSnapshot(*world.graph, world.cps, i);
    const double probe = world.cps.IntervalMidpoint(i);
    size_t expect_open = 0;
    for (size_t d = 0; d < n; ++d) {
      const bool open =
          world.graph->Ati(static_cast<DoorId>(d)).ContainsTimeOfDay(probe);
      EXPECT_EQ(snap.IsOpen(static_cast<DoorId>(d)), open)
          << "interval " << i << " door " << d;
      if (open) ++expect_open;
    }
    EXPECT_EQ(snap.open_door_count, expect_open) << "interval " << i;
    EXPECT_EQ(snap.open.Count(), expect_open) << "interval " << i;
    // The packed mask is ~8x smaller than the byte-per-door layout.
    EXPECT_LE(snap.MemoryUsage(), (n + 63) / 64 * sizeof(uint64_t) + 8);
  }
}

TEST(BoundaryFlipIndexTest, ListsExactlyTheDoorsThatFlip) {
  StoreWorld world = MakeWorld();
  const BoundaryFlipIndex flips =
      BoundaryFlipIndex::Build(*world.graph, world.cps);
  ASSERT_EQ(flips.NumBoundaries(), world.cps.NumCheckpoints());

  for (size_t b = 0; b < flips.NumBoundaries(); ++b) {
    const GraphSnapshot before = BuildSnapshot(*world.graph, world.cps, b);
    const GraphSnapshot after = BuildSnapshot(*world.graph, world.cps, b + 1);
    size_t expect_flips = 0;
    DoorMask in_list(world.graph->NumDoors());
    for (const DoorId* it = flips.FlipsBegin(b); it != flips.FlipsEnd(b);
         ++it) {
      in_list.Set(*it);
    }
    for (size_t d = 0; d < world.graph->NumDoors(); ++d) {
      const DoorId door = static_cast<DoorId>(d);
      const bool flipped = before.IsOpen(door) != after.IsOpen(door);
      if (flipped) ++expect_flips;
      EXPECT_EQ(in_list.Test(door), flipped)
          << "boundary " << b << " door " << d;
    }
    EXPECT_EQ(flips.NumFlips(b), expect_flips) << "boundary " << b;
    // A checkpoint exists because SOME door flips there.
    EXPECT_GT(flips.NumFlips(b), 0u) << "boundary " << b;
  }
}

TEST(GraphSnapshotTest, DeltaBuildMatchesFullBuildBothDirections) {
  StoreWorld world = MakeWorld();
  const BoundaryFlipIndex flips =
      BoundaryFlipIndex::Build(*world.graph, world.cps);
  const size_t intervals = world.cps.NumIntervals();
  ASSERT_GT(intervals, 2u);

  for (size_t i = 0; i + 1 < intervals; ++i) {
    const GraphSnapshot from = BuildSnapshot(*world.graph, world.cps, i);
    const GraphSnapshot full = BuildSnapshot(*world.graph, world.cps, i + 1);

    size_t touched = 0;
    const GraphSnapshot forward = BuildSnapshotDelta(
        *world.graph, world.cps, flips, from, i + 1, &touched);
    EXPECT_EQ(forward.interval_index, i + 1);
    EXPECT_EQ(forward.open, full.open) << "forward delta into " << i + 1;
    EXPECT_EQ(forward.open_door_count, full.open_door_count);
    // The acceptance bound: a delta build touches no more doors than
    // the boundary's flip list holds.
    EXPECT_LE(touched, flips.NumFlips(i));

    const GraphSnapshot backward =
        BuildSnapshotDelta(*world.graph, world.cps, flips, full, i, &touched);
    EXPECT_EQ(backward.open, from.open) << "backward delta into " << i;
    EXPECT_EQ(backward.open_door_count, from.open_door_count);
    EXPECT_LE(touched, flips.NumFlips(i));
  }
}

TEST(SnapshotStoreTest, KeepAllMemoisesAndNeverEvicts) {
  StoreWorld world = MakeWorld();
  SnapshotStoreOptions options;  // unlimited — the old cache
  SnapshotStore store(*world.graph, world.cps, options);

  bool built_now = false;
  auto first = store.Get(0, &built_now);
  EXPECT_TRUE(built_now);
  auto again = store.Get(0, &built_now);
  EXPECT_FALSE(built_now);
  EXPECT_EQ(first.get(), again.get());  // same resident snapshot

  for (size_t i = 0; i < store.NumIntervals(); ++i) (void)store.Get(i);
  const CacheStatsSnapshot stats = store.Stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_snapshots, store.NumIntervals());
  EXPECT_EQ(stats.misses, store.NumIntervals());
  EXPECT_EQ(stats.builds(), store.NumIntervals());
  EXPECT_GT(stats.hits, 0u);
}

TEST(SnapshotStoreTest, EvictedIntervalRebuildsBitIdentical) {
  StoreWorld world = MakeWorld();
  // Budget of exactly one snapshot: every Get of a new interval evicts
  // the previous one.
  const GraphSnapshot probe = BuildSnapshot(*world.graph, world.cps, 0);
  SnapshotStoreOptions options;
  options.budget_bytes = SnapBytes(probe);
  SnapshotStore store(*world.graph, world.cps, options);
  ASSERT_GE(store.NumIntervals(), 3u);

  const std::shared_ptr<const GraphSnapshot> pinned = store.Get(0);
  const DoorMask before = pinned->open;

  (void)store.Get(1);  // evicts interval 0 (budget fits one snapshot)
  (void)store.Get(2);  // evicts interval 1
  CacheStatsSnapshot stats = store.Stats();
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_EQ(stats.resident_snapshots, 1u);
  EXPECT_LE(stats.resident_bytes, options.budget_bytes);

  // The pin kept the evicted mask alive and untouched.
  EXPECT_EQ(pinned->open, before);

  // Re-Get rebuilds (miss, not hit) bit-identically.
  const size_t misses_before = stats.misses;
  bool built_now = false;
  auto rebuilt = store.Get(0, &built_now);
  EXPECT_TRUE(built_now);
  EXPECT_NE(rebuilt.get(), pinned.get());
  EXPECT_EQ(rebuilt->open, before);
  EXPECT_EQ(rebuilt->open_door_count, pinned->open_door_count);
  EXPECT_EQ(store.Stats().misses, misses_before + 1);
}

// The exact LRU victim order: under a two-snapshot budget, re-reading
// interval 0 makes interval 1 the least recently used, so the miss on
// interval 2 evicts 1 and leaves 0 and 2 resident.
TEST(SnapshotStoreTest, LruEvictsLeastRecentlyUsedInterval) {
  StoreWorld world = MakeWorld();
  const GraphSnapshot probe = BuildSnapshot(*world.graph, world.cps, 0);
  SnapshotStoreOptions options;
  options.budget_bytes = 2 * SnapBytes(probe);
  SnapshotStore store(*world.graph, world.cps, options);
  ASSERT_GE(store.NumIntervals(), 3u);

  for (size_t interval : {0u, 1u, 0u, 2u}) (void)store.Get(interval);
  CacheStatsSnapshot stats = store.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_snapshots, 2u);

  bool built_now = true;
  (void)store.Get(0, &built_now);
  EXPECT_FALSE(built_now) << "interval 0 was evicted";
  (void)store.Get(2, &built_now);
  EXPECT_FALSE(built_now) << "interval 2 was evicted";
  (void)store.Get(1, &built_now);
  EXPECT_TRUE(built_now) << "interval 1 stayed resident";
}

TEST(SnapshotStoreTest, DeltaBuildsServeMissesWithinFlipBudget) {
  StoreWorld world = MakeWorld();
  SnapshotStoreOptions options;  // unlimited
  SnapshotStore store(*world.graph, world.cps, options);
  const BoundaryFlipIndex& flips = store.flip_index();

  // Sequential walk: interval 0 is a full build, every later interval
  // has its predecessor resident, so all misses fill via delta.
  size_t max_flips = 0;
  for (size_t b = 0; b < flips.NumBoundaries(); ++b) {
    max_flips = std::max(max_flips, flips.NumFlips(b));
  }
  for (size_t i = 0; i < store.NumIntervals(); ++i) (void)store.Get(i);

  const CacheStatsSnapshot stats = store.Stats();
  EXPECT_EQ(stats.full_builds, 1u);
  EXPECT_EQ(stats.delta_builds, store.NumIntervals() - 1);
  EXPECT_EQ(stats.delta_door_touches, flips.TotalFlips());
  // Per-miss door touches never exceed the flip-list bound.
  EXPECT_LE(stats.delta_door_touches, stats.delta_builds * max_flips);

  // Every delta-derived mask equals its from-G0 derivation.
  for (size_t i = 0; i < store.NumIntervals(); ++i) {
    EXPECT_EQ(store.Get(i)->open,
              BuildSnapshot(*world.graph, world.cps, i).open)
        << "interval " << i;
  }
}

TEST(SnapshotStoreTest, SetBudgetEvictsImmediately) {
  StoreWorld world = MakeWorld();
  SnapshotStoreOptions options;
  // Unlimited budget to start.
  SnapshotStore store(*world.graph, world.cps, options);
  for (size_t i = 0; i < store.NumIntervals(); ++i) (void)store.Get(i);
  ASSERT_EQ(store.Stats().resident_snapshots, store.NumIntervals());

  const GraphSnapshot probe = BuildSnapshot(*world.graph, world.cps, 0);
  store.SetBudget(2 * SnapBytes(probe));
  const CacheStatsSnapshot stats = store.Stats();
  EXPECT_LE(stats.resident_bytes, 2 * SnapBytes(probe));
  EXPECT_LE(stats.resident_snapshots, 2u);
  EXPECT_GE(stats.evictions, store.NumIntervals() - 2);
  // The store still answers, bit-identically, after the squeeze.
  EXPECT_EQ(store.Get(3)->open,
            BuildSnapshot(*world.graph, world.cps, 3).open);
}

// Budget edge cases the store must degrade through gracefully — never
// crash, never hand out a wrong mask.

// budget_bytes = 0 is "unlimited": the LRU never evicts.
TEST(SnapshotStoreBudgetEdgeTest, ZeroBudgetMeansUnlimitedUnderLru) {
  StoreWorld world = MakeWorld();
  SnapshotStoreOptions options;
  options.budget_bytes = 0;
  SnapshotStore store(*world.graph, world.cps, options);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < store.NumIntervals(); ++i) {
      EXPECT_EQ(store.Get(i)->open,
                BuildSnapshot(*world.graph, world.cps, i).open)
          << "pass " << pass << " interval " << i;
    }
  }
  const CacheStatsSnapshot stats = store.Stats();
  EXPECT_EQ(stats.budget_bytes, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_snapshots, store.NumIntervals());
}

// A budget smaller than any single snapshot: the one-resident-snapshot
// floor holds (the caller needs the mask it just asked for), every new
// interval evicts the previous one, and answers stay bit-identical.
TEST(SnapshotStoreBudgetEdgeTest, BudgetBelowOneSnapshotKeepsExactlyOne) {
  StoreWorld world = MakeWorld();
  SnapshotStoreOptions options;
  options.budget_bytes = 1;  // smaller than any snapshot
  SnapshotStore store(*world.graph, world.cps, options);
  ASSERT_GE(store.NumIntervals(), 2u);

  for (size_t i = 0; i < store.NumIntervals(); ++i) {
    EXPECT_EQ(store.Get(i)->open,
              BuildSnapshot(*world.graph, world.cps, i).open)
        << "interval " << i;
    EXPECT_EQ(store.Stats().resident_snapshots, 1u) << "interval " << i;
  }
  const CacheStatsSnapshot stats = store.Stats();
  EXPECT_EQ(stats.evictions, store.NumIntervals() - 1);
  EXPECT_EQ(stats.misses, store.NumIntervals());
  // The floor overrides the budget: resident bytes exceed 1 by design.
  EXPECT_GT(stats.resident_bytes, options.budget_bytes);
}

// SetBudget squeezing a full store below one snapshot collapses the
// resident set to the floor, and the store still answers correctly.
TEST(SnapshotStoreBudgetEdgeTest, SetBudgetBelowOneSnapshotCollapsesToOne) {
  StoreWorld world = MakeWorld();
  SnapshotStoreOptions options;
  SnapshotStore store(*world.graph, world.cps, options);
  for (size_t i = 0; i < store.NumIntervals(); ++i) (void)store.Get(i);
  ASSERT_EQ(store.Stats().resident_snapshots, store.NumIntervals());

  // With no Get in flight there is nothing to protect, so the squeeze
  // may evict everything; the one-resident floor is a Get-time
  // guarantee.
  store.SetBudget(1);
  EXPECT_LE(store.Stats().resident_snapshots, 1u);
  for (size_t i = 0; i < store.NumIntervals(); ++i) {
    EXPECT_EQ(store.Get(i)->open,
              BuildSnapshot(*world.graph, world.cps, i).open)
        << "interval " << i;
    EXPECT_EQ(store.Stats().resident_snapshots, 1u) << "interval " << i;
  }

  // And back to unlimited: the store refills without complaint.
  store.SetBudget(0);
  for (size_t i = 0; i < store.NumIntervals(); ++i) (void)store.Get(i);
  EXPECT_EQ(store.Stats().resident_snapshots, store.NumIntervals());
}

// The pin/evict concurrency contract: 8 threads hammer a store whose
// budget fits a single snapshot, so almost every Get is a miss that
// evicts what another thread may still be reading. Runs under the
// existing TSan preset. Masks handed out must always be complete and
// bit-identical to the from-G0 derivation.
TEST(SnapshotStoreConcurrencyTest, PinEvictHammer) {
  StoreWorld world = MakeWorld();
  const GraphSnapshot probe = BuildSnapshot(*world.graph, world.cps, 0);
  SnapshotStoreOptions options;
  options.budget_bytes = SnapBytes(probe);
  SnapshotStore store(*world.graph, world.cps, options);
  const size_t intervals = store.NumIntervals();

  std::vector<DoorMask> expect;
  std::vector<size_t> expect_count;
  for (size_t i = 0; i < intervals; ++i) {
    const GraphSnapshot snap = BuildSnapshot(*world.graph, world.cps, i);
    expect.push_back(snap.open);
    expect_count.push_back(snap.open_door_count);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::atomic<int> mismatches{0};
  auto worker = [&](int thread_index) {
    for (int round = 0; round < kRounds; ++round) {
      // Threads stride the interval space out of phase, maximising
      // evict-while-pinned interleavings.
      for (size_t k = 0; k < intervals; ++k) {
        const size_t i =
            (k * (1 + static_cast<size_t>(thread_index)) + round) % intervals;
        const std::shared_ptr<const GraphSnapshot> snap = store.Get(i);
        if (snap->interval_index != i || snap->open != expect[i] ||
            snap->open_door_count != expect_count[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const CacheStatsSnapshot stats = store.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, options.budget_bytes);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<size_t>(kThreads) * kRounds * intervals);
}

}  // namespace
}  // namespace itspq
