// The lazy fleet: VenueCatalog shards registered by `.itspq` artifact
// path, loaded on first query, evicted under a catalog-wide residency
// budget, and pinned resident once an online update diverges them from
// their artifact. The concurrency test at the bottom is the one the
// tsan CI preset race-checks: 8 readers on a Zipf-shaped workload while
// cold shards load, the evictor reclaims others, and an updater
// publishes new epochs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "common/time.h"
#include "gen/workload_gen.h"
#include "query/sharded_router.h"
#include "query/venue_catalog.h"
#include "update/ati_update.h"

namespace itspq {
namespace {

constexpr size_t kFleetSize = 4;

template <typename T>
T ValueOrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

// One fixture directory per process: the fleet is deterministic (fixed
// seed), so every test in the process can reuse the same artifacts,
// while ctest runs each test as its own process, in parallel — a shared
// directory let one process's artifact write race another's.
class LazyCatalogTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    (void)std::system(("mkdir -p " + Dir()).c_str());
    fleet_ = new std::vector<Venue>(MakeFleet());
    for (size_t i = 0; i < fleet_->size(); ++i) {
      ASSERT_TRUE(
          WriteVenueArtifact(ArtifactPath(i), (*fleet_)[i]).ok());
    }
  }

  static void TearDownTestSuite() {
    (void)std::system(("rm -rf " + Dir()).c_str());
    delete fleet_;
    fleet_ = nullptr;
  }

  static std::string Dir() {
    return "lazy_catalog_test_" + std::to_string(::getpid());
  }

  static std::vector<Venue> MakeFleet() {
    FleetConfig config;
    config.num_venues = static_cast<int>(kFleetSize);
    config.seed = 7;
    config.min_floors = 1;
    config.max_floors = 2;
    config.min_shop_rows = 2;
    config.max_shop_rows = 3;
    return ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
  }

  static std::string ArtifactPath(size_t i) {
    return Dir() + "/venue_" + std::to_string(i) + ".itspq";
  }

  static VenueCatalog MakeEagerCatalog() {
    VenueCatalog catalog;
    for (const Venue& venue : *fleet_) {
      (void)ValueOrDie(catalog.AddVenue(Venue(venue), "itg-s"), "AddVenue");
    }
    return catalog;
  }

  static VenueCatalog MakeLazyCatalog() {
    VenueCatalog catalog;
    for (size_t i = 0; i < fleet_->size(); ++i) {
      (void)ValueOrDie(catalog.AddArtifactShard(ArtifactPath(i), "itg-s"),
                       "AddArtifactShard");
    }
    return catalog;
  }

  static std::vector<QueryRequest> MakeWorkload(const VenueCatalog& eager,
                                                int num_requests) {
    MultiVenueWorkloadConfig config;
    config.num_requests = num_requests;
    config.seed = 99;
    config.pairs_per_venue = 4;
    // Zipf-skewed venue choice: a hot head and a cold tail, the traffic
    // shape the residency budget exists for.
    config.zipf_exponent = 1.0;
    return ValueOrDie(GenerateMultiVenueWorkload(eager, config), "workload");
  }

  /// Bytes of the largest shard once loaded — the floor any useful
  /// residency budget must clear.
  static size_t MaxShardBytes(const VenueCatalog& lazy_probe) {
    size_t max_bytes = 0;
    for (size_t i = 0; i < lazy_probe.NumVenues(); ++i) {
      auto world = lazy_probe.EnsureResident(static_cast<VenueId>(i));
      EXPECT_TRUE(world.ok());
      max_bytes = std::max(max_bytes, (*world)->MemoryUsage());
    }
    return max_bytes;
  }

  static std::vector<Venue>* fleet_;
};

std::vector<Venue>* LazyCatalogTest::fleet_ = nullptr;

TEST_F(LazyCatalogTest, ShardsLoadOnFirstQueryOnly) {
  VenueCatalog eager = MakeEagerCatalog();
  VenueCatalog lazy = MakeLazyCatalog();

  // Registration alone loads nothing.
  CatalogStats cold = lazy.Stats();
  EXPECT_EQ(cold.lazy_shards, kFleetSize);
  EXPECT_EQ(cold.resident_shards, 0u);
  EXPECT_EQ(cold.total_loads, 0u);
  EXPECT_EQ(cold.total_memory_bytes, 0u);
  for (size_t i = 0; i < kFleetSize; ++i) {
    EXPECT_FALSE(lazy.IsResident(static_cast<VenueId>(i)));
    EXPECT_EQ(lazy.world(static_cast<VenueId>(i)), nullptr);
  }

  // One query touches exactly one shard.
  std::vector<QueryRequest> requests = MakeWorkload(eager, 40);
  ShardedRouter eager_router(eager), lazy_router(lazy);
  QueryContext eager_context, lazy_context;
  const QueryRequest& first = requests[0];
  auto expect = eager_router.Route(first, &eager_context);
  auto got = lazy_router.Route(first, &lazy_context);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(expect->found, got->found);
  if (expect->found) {
    EXPECT_EQ(expect->path.length_m(), got->path.length_m());
  }
  CatalogStats touched = lazy.Stats();
  EXPECT_EQ(touched.resident_shards, 1u);
  EXPECT_EQ(touched.total_loads, 1u);
  EXPECT_TRUE(lazy.IsResident(first.venue_id));

  // The full workload answers bit-identically; each shard loads once.
  for (const QueryRequest& request : requests) {
    auto e = eager_router.Route(request, &eager_context);
    auto l = lazy_router.Route(request, &lazy_context);
    ASSERT_TRUE(e.ok());
    ASSERT_TRUE(l.ok());
    ASSERT_EQ(e->found, l->found);
    if (e->found) {
      EXPECT_EQ(e->path.length_m(), l->path.length_m());
    }
  }
  CatalogStats warm = lazy.Stats();
  EXPECT_LE(warm.total_loads, kFleetSize);  // no budget, so no reloads
  for (const ShardStats& s : warm.shards) {
    EXPECT_TRUE(s.lazy);
    EXPECT_LE(s.loads, 1u);
    if (s.resident) {
      EXPECT_GT(s.memory_bytes, 0u);
    }
  }
}

// A cold lazy shard has no published world, yet epoch(id) requires only
// Contains(id): it reads 0 (a shard that took an update is pinned
// resident, so a cold one never left epoch 0) and loads nothing.
TEST_F(LazyCatalogTest, ColdShardReadsEpochZeroWithoutLoading) {
  VenueCatalog lazy = MakeLazyCatalog();
  for (size_t i = 0; i < kFleetSize; ++i) {
    const VenueId id = static_cast<VenueId>(i);
    EXPECT_EQ(lazy.epoch(id), 0u);
    EXPECT_FALSE(lazy.IsResident(id));
  }
  EXPECT_EQ(lazy.Stats().total_loads, 0u);

  AtiUpdate update;
  update.venue_id = 1;
  update.door_id = 0;
  update.intervals = {TimeInterval{9 * 3600.0, 17 * 3600.0}};
  (void)ValueOrDie(lazy.ApplyAtiUpdate(update), "ApplyAtiUpdate");
  EXPECT_EQ(lazy.epoch(1), 1u);
  EXPECT_EQ(lazy.epoch(0), 0u);
  EXPECT_FALSE(lazy.IsResident(0));
}

// The load-failure path still reconciles the shard ledger: a query
// that dies in EnsureResident (artifact corrupted after registration)
// must land in queries_served AND route_errors together — not one
// without the other, which is exactly the drift the reconciliation
// invariant exists to catch.
TEST_F(LazyCatalogTest, FailedLoadStillReconcilesShardCounters) {
  const std::string path = Dir() + "/truncated.itspq";
  (void)std::system(("cp " + ArtifactPath(0) + " " + path).c_str());

  VenueCatalog catalog;
  const VenueId id =
      ValueOrDie(catalog.AddArtifactShard(path, "itg-s"), "AddArtifactShard");
  // Registration validated the header + section table; chopping the
  // payload afterwards makes the first load — not the registration —
  // the thing that fails.
  ASSERT_EQ(::truncate(path.c_str(), 64), 0);

  ShardedRouter sharded(catalog);
  QueryRequest request;
  request.venue_id = id;
  QueryContext context;
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto result = sharded.Route(request, &context);
    EXPECT_FALSE(result.ok()) << attempt;
  }

  const CatalogStats stats = catalog.Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  const ShardStats& s = stats.shards[0];
  EXPECT_EQ(s.queries_served, 2u);
  EXPECT_EQ(s.route_errors, 2u);
  EXPECT_EQ(s.routes_found, 0u);
  EXPECT_EQ(s.routes_not_found, 0u);
  EXPECT_EQ(s.queries_served,
            s.routes_found + s.routes_not_found + s.route_errors);
  EXPECT_EQ(stats.total_queries,
            stats.total_found + stats.total_not_found + stats.total_errors);
}

TEST_F(LazyCatalogTest, BudgetEvictsColdShardsAndAnswersStayIdentical) {
  VenueCatalog eager = MakeEagerCatalog();
  VenueCatalog probe = MakeLazyCatalog();
  const size_t max_bytes = MaxShardBytes(probe);

  VenueCatalog lazy = MakeLazyCatalog();
  // Room for the largest shard plus change, but never the whole fleet:
  // serving the workload must evict.
  const size_t budget = max_bytes + max_bytes / 2;
  ASSERT_TRUE(lazy.SetResidencyBudget(budget, "lru").ok());

  std::vector<QueryRequest> requests = MakeWorkload(eager, 120);
  ShardedRouter eager_router(eager), lazy_router(lazy);
  QueryContext eager_context, lazy_context;
  for (const QueryRequest& request : requests) {
    auto expect = eager_router.Route(request, &eager_context);
    auto got = lazy_router.Route(request, &lazy_context);
    ASSERT_TRUE(expect.ok());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(expect->found, got->found);
    if (expect->found) {
      EXPECT_EQ(expect->path.length_m(), got->path.length_m());
    }
    // The budget invariant holds at every step, not just at the end.
    EXPECT_LE(lazy.Stats().resident_lazy_bytes, budget);
  }

  const CatalogStats stats = lazy.Stats();
  EXPECT_EQ(stats.residency_budget_bytes, budget);
  EXPECT_GT(stats.total_shard_evictions, 0u);
  EXPECT_GT(stats.total_loads, kFleetSize);  // evicted shards reloaded
  EXPECT_LT(stats.resident_shards, kFleetSize);
  EXPECT_GT(stats.load_latency.total, 0u);

  // Unknown policies are rejected up front.
  EXPECT_EQ(lazy.SetResidencyBudget(budget, "no-such-policy").code(),
            StatusCode::kNotFound);
}

// The exact residency victim order: with room for any two of shards
// 0-2 but not all three, re-reading shard 0 makes shard 1 the least
// recently used, so loading shard 2 evicts 1 and leaves 0 and 2
// resident.
TEST_F(LazyCatalogTest, LruEvictsLeastRecentlyUsedShard) {
  VenueCatalog probe = MakeLazyCatalog();
  size_t three_shards = 0;
  for (VenueId id : {0, 1, 2}) {
    three_shards +=
        ValueOrDie(probe.EnsureResident(id), "probe")->MemoryUsage();
  }

  VenueCatalog lazy = MakeLazyCatalog();
  ASSERT_TRUE(lazy.SetResidencyBudget(three_shards - 1, "lru").ok());
  for (VenueId id : {0, 1, 0, 2}) {
    ASSERT_TRUE(lazy.EnsureResident(id).ok()) << id;
  }
  EXPECT_EQ(lazy.Stats().total_shard_evictions, 1u);
  EXPECT_TRUE(lazy.IsResident(0));
  EXPECT_FALSE(lazy.IsResident(1));
  EXPECT_TRUE(lazy.IsResident(2));
}

TEST_F(LazyCatalogTest, UpdatedShardIsPinnedAndNeverEvicted) {
  VenueCatalog probe = MakeLazyCatalog();
  const size_t max_bytes = MaxShardBytes(probe);

  VenueCatalog lazy = MakeLazyCatalog();
  ASSERT_TRUE(lazy.SetResidencyBudget(max_bytes + max_bytes / 2, "lru").ok());

  // Updating a cold shard loads it, applies on top, and pins it.
  AtiUpdate update;
  update.venue_id = 0;
  update.door_id = 0;
  update.intervals = {TimeInterval{9 * 3600.0, 17 * 3600.0}};
  UpdateOutcome outcome =
      ValueOrDie(lazy.ApplyAtiUpdate(update), "ApplyAtiUpdate");
  EXPECT_EQ(outcome.epoch, 1u);
  EXPECT_TRUE(lazy.IsResident(0));

  // Hammer every other shard to churn the budget; the updated shard
  // must survive (its state has diverged from the artifact on disk).
  VenueCatalog eager = MakeEagerCatalog();
  ShardedRouter lazy_router(lazy);
  QueryContext context;
  for (int round = 0; round < 3; ++round) {
    for (const QueryRequest& request : MakeWorkload(eager, 60)) {
      if (request.venue_id == 0) continue;
      ASSERT_TRUE(lazy_router.Route(request, &context).ok());
    }
  }
  EXPECT_TRUE(lazy.IsResident(0));
  const CatalogStats stats = lazy.Stats();
  EXPECT_EQ(stats.shards[0].epoch, 1u);
  EXPECT_EQ(stats.shards[0].loads, 1u);
  EXPECT_EQ(stats.shards[0].updates_applied, 1u);
  // Pinned shards serve outside the budget's accounting.
  EXPECT_LE(stats.resident_lazy_bytes, stats.residency_budget_bytes);
}

// The race the lazy plane must survive: 8 readers over a Zipf workload
// against a budget that forces cold loads and evictions mid-traffic,
// plus an updater publishing new epochs on one shard. Every answer must
// be coherent against exactly one epoch — bit-identical to the pre- or
// post-update reference, never a blend.
TEST_F(LazyCatalogTest, ConcurrentReadersSurviveLoadsEvictionsAndUpdates) {
  VenueCatalog eager = MakeEagerCatalog();
  VenueCatalog probe = MakeLazyCatalog();
  const size_t max_bytes = MaxShardBytes(probe);

  VenueCatalog lazy = MakeLazyCatalog();
  ASSERT_TRUE(lazy.SetResidencyBudget(max_bytes + max_bytes / 2, "lru").ok());

  const std::vector<QueryRequest> requests = MakeWorkload(eager, 64);
  AtiUpdate update;
  update.venue_id = 0;
  update.door_id = 0;
  update.intervals = {TimeInterval{10 * 3600.0, 16 * 3600.0}};

  // Reference answers on both sides of the update, from the eager twin.
  struct Reference {
    bool ok = false;
    bool found = false;
    double length = -1.0;
  };
  auto snapshot = [&requests](const VenueCatalog& catalog) {
    ShardedRouter router(catalog);
    QueryContext context;
    std::vector<Reference> out;
    for (const QueryRequest& request : requests) {
      auto r = router.Route(request, &context);
      Reference ref;
      ref.ok = r.ok();
      if (r.ok()) {
        ref.found = r->found;
        ref.length = r->found ? r->path.length_m() : -1.0;
      }
      out.push_back(ref);
    }
    return out;
  };
  const std::vector<Reference> before = snapshot(eager);
  (void)ValueOrDie(eager.ApplyAtiUpdate(update), "eager ApplyAtiUpdate");
  const std::vector<Reference> after = snapshot(eager);

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::atomic<bool> updated{false};
  ShardedRouter lazy_router(lazy);

  auto matches = [](const StatusOr<QueryResult>& got, const Reference& ref) {
    if (!got.ok() || !ref.ok) return got.ok() == ref.ok;
    if (got->found != ref.found) return false;
    return !got->found || got->path.length_m() == ref.length;
  };

  auto reader = [&](int thread_index) {
    QueryContext context;
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < requests.size(); ++i) {
        // Stagger the order so threads collide on different shards.
        const size_t k = (i + static_cast<size_t>(thread_index) * 7) %
                         requests.size();
        auto got = lazy_router.Route(requests[k], &context);
        const bool pre_ok = matches(got, before[k]);
        const bool post_ok = matches(got, after[k]);
        // Shard 0 may legitimately serve either epoch while the update
        // is in flight; every other shard has exactly one truth. Once
        // the update is known committed, shard 0 answers must come from
        // the new epoch or a pin taken before it.
        if (!pre_ok && !post_ok) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (requests[k].venue_id != 0 && !pre_ok) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(reader, t);
  {
    // The writer lands mid-traffic.
    std::thread updater([&] {
      auto outcome = lazy.ApplyAtiUpdate(update);
      EXPECT_TRUE(outcome.ok());
      updated.store(true, std::memory_order_release);
    });
    updater.join();
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(updated.load());

  const CatalogStats stats = lazy.Stats();
  EXPECT_EQ(stats.shards[0].epoch, 1u);
  EXPECT_TRUE(lazy.IsResident(0));  // pinned by the update
  EXPECT_GT(stats.total_loads, 0u);
  EXPECT_LE(stats.resident_lazy_bytes, stats.residency_budget_bytes);
  // Post-quiesce, every request must answer from the committed epoch.
  QueryContext context;
  for (size_t i = 0; i < requests.size(); ++i) {
    auto got = lazy_router.Route(requests[i], &context);
    EXPECT_TRUE(matches(got, after[i])) << i;
  }
}

}  // namespace
}  // namespace itspq
