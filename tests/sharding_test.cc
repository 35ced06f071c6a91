// The multi-venue serving layer: VenueCatalog shard assembly,
// ShardedRouter dispatch by QueryRequest::venue_id, batch fan-out over
// heterogeneous shards, the CatalogStats report, QueryContext reuse
// across routers/strategies/venues, and an 8-thread hammer over one
// shared ShardedRouter (the test the tsan CI preset exists for).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/time.h"
#include "gen/workload_gen.h"
#include "query/router.h"
#include "query/sharded_router.h"
#include "query/strategies.h"
#include "query/venue_catalog.h"

namespace itspq {
namespace {

const char* const kShardStrategies[] = {"itg-s", "itg-a+", "snap"};

// Catalog/workload construction runs before the assertions under test;
// a half-built fixture would only resurface as undefined behavior
// later, so fail loudly with the status instead.
template <typename T>
T ValueOrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

// Three heterogeneous venues (different floor counts, shop densities,
// checkpoint pools), each behind a different strategy.
VenueCatalog MakeCatalog(uint64_t seed = 7) {
  FleetConfig config;
  config.num_venues = 3;
  config.seed = seed;
  config.min_floors = 1;
  config.max_floors = 2;
  config.min_shop_rows = 2;
  config.max_shop_rows = 3;
  std::vector<Venue> fleet =
      ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");

  VenueCatalog catalog;
  for (size_t i = 0; i < fleet.size(); ++i) {
    const VenueId id = ValueOrDie(
        catalog.AddVenue(std::move(fleet[i]), kShardStrategies[i]),
        kShardStrategies[i]);
    EXPECT_EQ(id, static_cast<VenueId>(i));
  }
  return catalog;
}

std::vector<QueryRequest> MakeWorkload(const VenueCatalog& catalog,
                                       int num_requests = 60,
                                       uint64_t seed = 99) {
  MultiVenueWorkloadConfig config;
  config.num_requests = num_requests;
  config.seed = seed;
  config.pairs_per_venue = 4;
  return ValueOrDie(GenerateMultiVenueWorkload(catalog, config),
                    "GenerateMultiVenueWorkload");
}

TEST(VenueCatalogTest, AddVenueBuildsShardsAndLabels) {
  FleetConfig config;
  config.num_venues = 2;
  config.min_floors = 1;
  config.max_floors = 1;
  auto fleet = GenerateVenueFleet(config);
  ASSERT_TRUE(fleet.ok());

  VenueCatalog catalog;
  EXPECT_EQ(catalog.NumVenues(), 0u);
  EXPECT_FALSE(catalog.Contains(0));

  auto first = catalog.AddVenue(std::move((*fleet)[0]), "itg-s", "flagship");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0);
  EXPECT_EQ(catalog.label(0), "flagship");
  EXPECT_EQ(catalog.router(0).name(), "itg-s");

  auto second = catalog.AddVenue(std::move((*fleet)[1]), "snap");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 1);
  EXPECT_EQ(catalog.label(1), "venue-1");  // default label
  EXPECT_EQ(catalog.router(1).name(), "snap");

  EXPECT_EQ(catalog.NumVenues(), 2u);
  EXPECT_TRUE(catalog.Contains(0));
  EXPECT_TRUE(catalog.Contains(1));
  EXPECT_FALSE(catalog.Contains(2));
  EXPECT_FALSE(catalog.Contains(-1));
  // Each shard's graph is compiled from that shard's venue.
  EXPECT_EQ(&catalog.graph(0).venue(), &catalog.venue(0));
  EXPECT_EQ(&catalog.graph(1).venue(), &catalog.venue(1));
  // Heterogeneous shards: the venues are genuinely different.
  EXPECT_NE(catalog.venue(0).NumDoors(), 0u);
}

TEST(VenueCatalogTest, AddVenueUnknownStrategyLeavesCatalogUnchanged) {
  FleetConfig config;
  config.num_venues = 3;
  config.min_floors = 1;
  config.max_floors = 1;
  auto fleet = GenerateVenueFleet(config);
  ASSERT_TRUE(fleet.ok());

  VenueCatalog catalog;
  auto id = catalog.AddVenue(std::move((*fleet)[0]), "no-such-strategy");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.NumVenues(), 0u);
  EXPECT_FALSE(catalog.Contains(0));

  // A failed add burns no id: subsequent ids stay dense from 0.
  auto first = catalog.AddVenue(std::move((*fleet)[1]), "itg-s");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0);
  EXPECT_EQ(catalog.NumVenues(), 1u);
}

TEST(ShardedRouterTest, DispatchesByVenueId) {
  VenueCatalog catalog = MakeCatalog();
  ShardedRouter sharded(catalog);
  EXPECT_FALSE(sharded.has_graph());
  EXPECT_EQ(sharded.name(), "sharded");

  QueryContext sharded_context, direct_context;
  for (const QueryRequest& request : MakeWorkload(catalog)) {
    auto via_shard = sharded.Route(request, &sharded_context);
    auto direct =
        catalog.router(request.venue_id).Route(request, &direct_context);
    ASSERT_TRUE(via_shard.ok());
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(via_shard->found, direct->found);
    if (via_shard->found) {
      EXPECT_NEAR(via_shard->path.length_m(), direct->path.length_m(), 1e-9);
    }
  }
}

TEST(ShardedRouterTest, RejectsUnknownVenueIds) {
  VenueCatalog catalog = MakeCatalog();
  ShardedRouter sharded(catalog);
  QueryContext context;
  QueryRequest request = MakeWorkload(catalog, 1)[0];

  request.venue_id = -1;
  EXPECT_EQ(sharded.Route(request, &context).status().code(),
            StatusCode::kNotFound);
  request.venue_id = static_cast<VenueId>(catalog.NumVenues());
  EXPECT_EQ(sharded.Route(request, &context).status().code(),
            StatusCode::kNotFound);

  VenueCatalog empty;
  ShardedRouter empty_sharded(empty);
  request.venue_id = 0;
  EXPECT_EQ(empty_sharded.Route(request, &context).status().code(),
            StatusCode::kNotFound);
}

TEST(VenueCatalogTest, StatsCountTrafficPerShardAndAggregate) {
  VenueCatalog catalog = MakeCatalog();
  ShardedRouter sharded(catalog);

  CatalogStats before = sharded.catalog().Stats();
  ASSERT_EQ(before.shards.size(), 3u);
  EXPECT_EQ(before.total_queries, 0u);
  EXPECT_EQ(before.total_found, 0u);
  EXPECT_EQ(before.total_errors, 0u);
  for (const ShardStats& s : before.shards) {
    EXPECT_EQ(s.queries_served, 0u);
    EXPECT_GT(s.memory_bytes, 0u);  // venue + graph are resident up front
  }

  // Route a workload, tracking the expected per-shard tallies from the
  // results themselves; inject one per-request error into shard 1.
  std::vector<QueryRequest> requests = MakeWorkload(catalog, 40);
  requests[5].venue_id = 1;
  requests[5].source = IndoorPoint{{1e7, 1e7}, 0};  // outside every venue
  // Exercise shard 1's snapshot cache (itg-a+ reads it when asked).
  for (QueryRequest& request : requests) {
    if (request.venue_id == 1) request.options.use_snapshot_cache = true;
  }

  std::vector<size_t> expect_queries(3, 0), expect_found(3, 0),
      expect_not_found(3, 0), expect_errors(3, 0);
  QueryContext context;
  for (const QueryRequest& request : requests) {
    const size_t shard = static_cast<size_t>(request.venue_id);
    ++expect_queries[shard];
    auto result = sharded.Route(request, &context);
    if (!result.ok()) {
      ++expect_errors[shard];
    } else if (result->found) {
      ++expect_found[shard];
    } else {
      ++expect_not_found[shard];
    }
  }

  CatalogStats after = sharded.catalog().Stats();
  size_t sum_queries = 0;
  for (size_t i = 0; i < 3; ++i) {
    const ShardStats& s = after.shards[i];
    EXPECT_EQ(s.venue_id, static_cast<VenueId>(i));
    EXPECT_EQ(s.strategy, kShardStrategies[i]);
    EXPECT_EQ(s.queries_served, expect_queries[i]) << i;
    EXPECT_EQ(s.routes_found, expect_found[i]) << i;
    EXPECT_EQ(s.routes_not_found, expect_not_found[i]) << i;
    EXPECT_EQ(s.route_errors, expect_errors[i]) << i;
    // The reconciliation contract: every dispatched query lands in
    // exactly one outcome counter — no path bumps queries_served
    // without also bumping found, not-found, or errors.
    EXPECT_EQ(s.queries_served,
              s.routes_found + s.routes_not_found + s.route_errors)
        << i;
    sum_queries += s.queries_served;
  }
  EXPECT_EQ(expect_errors[1], 1u);
  EXPECT_EQ(after.total_queries, sum_queries);
  EXPECT_EQ(after.total_queries, requests.size());
  EXPECT_EQ(after.total_queries,
            after.total_found + after.total_not_found + after.total_errors);
  // The itg-a+ shard derived reduced graphs through its shared store,
  // and the store's counters thread through ShardStats.
  EXPECT_GT(after.shards[1].cache.builds(), 0u);
  EXPECT_EQ(after.shards[1].cache.misses, after.shards[1].cache.builds());
  EXPECT_EQ(after.shards[1].cache.evictions, 0u);  // unbudgeted
  EXPECT_GT(after.shards[1].cache.resident_bytes, 0u);
  // The ntv-free fleet aggregates into the catalog-wide cache totals.
  EXPECT_GE(after.total_cache.builds(), after.shards[1].cache.builds());
  size_t shard_builds = 0;
  for (const ShardStats& s : after.shards) shard_builds += s.cache.builds();
  EXPECT_EQ(after.total_cache.builds(), shard_builds);
  EXPECT_GE(after.total_cache.resident_bytes,
            after.shards[1].cache.resident_bytes);
  EXPECT_GT(after.total_memory_bytes, 0u);
}

// A catalog-wide snapshot budget split across lru shards: per-shard
// stores evict under their slice, and answers stay identical to the
// unbudgeted catalog.
TEST(VenueCatalogTest, ApportionSnapshotBudgetSqueezesShardsSafely) {
  FleetConfig config;
  config.num_venues = 3;
  config.seed = 7;
  config.min_floors = 1;
  config.max_floors = 2;
  config.min_shop_rows = 2;
  config.max_shop_rows = 3;
  std::vector<Venue> fleet_a =
      ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
  std::vector<Venue> fleet_b =
      ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");

  VenueCatalog unbudgeted, budgeted;
  for (size_t i = 0; i < fleet_a.size(); ++i) {
    (void)ValueOrDie(unbudgeted.AddVenue(std::move(fleet_a[i]), "itg-a+"),
                     "add");
    (void)ValueOrDie(
        budgeted.AddVenue(std::move(fleet_b[i]), "itg-a+"), "add");
  }
  ShardedRouter reference(unbudgeted);
  ShardedRouter squeezed(budgeted);

  // ~2 snapshots of headroom per shard, measured off the largest shard
  // so the slice stays binding-but-satisfiable whatever the generator
  // produced: the lru stores must evict whenever a query walks a third
  // interval.
  size_t snap_bytes = 0;
  for (size_t i = 0; i < budgeted.NumVenues(); ++i) {
    const ItGraph& graph = budgeted.graph(static_cast<VenueId>(i));
    snap_bytes = std::max(
        snap_bytes,
        BuildSnapshot(graph, CheckpointSet::FromGraph(graph), 0).TotalBytes());
  }
  const size_t total_budget = budgeted.NumVenues() * 2 * snap_bytes;
  budgeted.ApportionSnapshotBudget(total_budget);

  std::vector<QueryRequest> requests = MakeWorkload(unbudgeted, 60);
  for (QueryRequest& request : requests) {
    request.options.use_snapshot_cache = true;
  }
  QueryContext ref_context, squeezed_context;
  for (const QueryRequest& request : requests) {
    auto expect = reference.Route(request, &ref_context);
    auto got = squeezed.Route(request, &squeezed_context);
    ASSERT_TRUE(expect.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(expect->found, got->found);
    if (expect->found && got->found) {
      EXPECT_EQ(expect->path.length_m(), got->path.length_m());
    }
  }

  const CatalogStats stats = budgeted.Stats();
  for (const ShardStats& s : stats.shards) {
    EXPECT_EQ(s.cache.budget_bytes, total_budget / stats.shards.size())
        << s.label;
    EXPECT_LE(s.cache.resident_bytes, s.cache.budget_bytes) << s.label;
  }
  EXPECT_EQ(stats.total_cache.budget_bytes,
            (total_budget / stats.shards.size()) * stats.shards.size());
}

// Apportioning fewer bytes than shards must stay a binding budget, not
// underflow to 0 ("unlimited"): each store gets the 1-byte floor, runs
// in keep-one-snapshot mode, and answers exactly like an unbudgeted
// catalog. Apportioning 0 is the documented way back to unlimited.
TEST(VenueCatalogTest, ApportionMoreShardsThanBytesDegradesGracefully) {
  VenueCatalog reference_catalog, squeezed_catalog;
  for (VenueCatalog* catalog : {&reference_catalog, &squeezed_catalog}) {
    FleetConfig config;
    config.num_venues = 3;
    config.seed = 7;
    config.min_floors = 1;
    config.max_floors = 2;
    std::vector<Venue> fleet =
        ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
    for (Venue& venue : fleet) {
      (void)ValueOrDie(catalog->AddVenue(std::move(venue), "itg-a+"),
                       "AddVenue");
    }
  }
  // 2 bytes across 3 shards: the naive integer split would be 0.
  squeezed_catalog.ApportionSnapshotBudget(2);

  ShardedRouter reference(reference_catalog);
  ShardedRouter squeezed(squeezed_catalog);
  std::vector<QueryRequest> requests = MakeWorkload(reference_catalog, 48);
  for (QueryRequest& request : requests) {
    request.options.use_snapshot_cache = true;
  }
  QueryContext reference_context, squeezed_context;
  for (const QueryRequest& request : requests) {
    auto expect = reference.Route(request, &reference_context);
    auto got = squeezed.Route(request, &squeezed_context);
    ASSERT_TRUE(expect.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(expect->found, got->found);
    if (expect->found && got->found) {
      EXPECT_EQ(expect->path.length_m(), got->path.length_m());
    }
  }

  for (const ShardStats& s : squeezed_catalog.Stats().shards) {
    EXPECT_EQ(s.cache.budget_bytes, 1u) << s.label;
    EXPECT_LE(s.cache.resident_snapshots, 1u) << s.label;
  }

  // Back to unlimited: 0 propagates as "no budget" to every store.
  squeezed_catalog.ApportionSnapshotBudget(0);
  for (const ShardStats& s : squeezed_catalog.Stats().shards) {
    EXPECT_EQ(s.cache.budget_bytes, 0u) << s.label;
  }
}

// One QueryContext hopping across venues of different sizes and all
// five strategies (plus the composite) must answer exactly like fresh
// contexts: per-query scratch is fully re-initialised per Route call.
TEST(QueryContextReuseTest, OneContextAcrossRoutersStrategiesAndVenues) {
  VenueCatalog catalog = MakeCatalog();
  ShardedRouter sharded(catalog);
  const std::vector<QueryRequest> requests = MakeWorkload(catalog, 30);

  // Extra single-venue routers, all five strategies on shard 0's graph.
  std::vector<std::unique_ptr<Router>> extra;
  for (const char* name : {"itg-s", "itg-a", "itg-a+", "snap", "ntv"}) {
    auto router = MakeRouter(name, catalog.graph(0));
    ASSERT_TRUE(router.ok());
    extra.push_back(*std::move(router));
  }

  // The call schedule interleaves shards and strategies so consecutive
  // calls on the shared context see different graph sizes, checkpoint
  // sets, and search kinds.
  struct Call {
    const Router* router;
    QueryRequest request;
  };
  std::vector<Call> schedule;
  for (size_t i = 0; i < requests.size(); ++i) {
    schedule.push_back({&sharded, requests[i]});
    QueryRequest on_zero = requests[i];
    on_zero.venue_id = 0;
    schedule.push_back({extra[i % extra.size()].get(), on_zero});
  }

  // Reference: a fresh context for every call.
  std::vector<StatusOr<QueryResult>> fresh_answers;
  for (const Call& call : schedule) {
    QueryContext fresh;
    fresh_answers.push_back(call.router->Route(call.request, &fresh));
  }

  // One context straight through, then the same context again in
  // reverse order — any scratch leaking between graphs shows up as a
  // result drift.
  QueryContext shared;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t k = 0; k < schedule.size(); ++k) {
      const size_t i = pass == 0 ? k : schedule.size() - 1 - k;
      auto result = schedule[i].router->Route(schedule[i].request, &shared);
      ASSERT_EQ(result.ok(), fresh_answers[i].ok()) << "call " << i;
      if (!result.ok()) continue;
      EXPECT_EQ(result->found, fresh_answers[i]->found) << "call " << i;
      if (result->found) {
        EXPECT_NEAR(result->path.length_m(),
                    fresh_answers[i]->path.length_m(), 1e-9)
            << "call " << i;
        EXPECT_EQ(result->path.steps().size(),
                  fresh_answers[i]->path.steps().size())
            << "call " << i;
      }
    }
  }
}

// The shard fan-out concurrency contract: one shared ShardedRouter,
// 8 threads, per-thread contexts, mixed snapshot-cache options. This is
// the test the tsan CI preset race-checks continuously.
TEST(ShardedRouterConcurrencyTest, SharedRouterSurvivesHammering) {
  VenueCatalog catalog = MakeCatalog();
  ShardedRouter sharded(catalog);
  const std::vector<QueryRequest> requests = MakeWorkload(catalog, 64);

  // Reference answers, single-threaded.
  QueryContext context;
  std::vector<bool> expect_found;
  std::vector<double> expect_length;
  for (const QueryRequest& request : requests) {
    auto r = sharded.Route(request, &context);
    ASSERT_TRUE(r.ok());
    expect_found.push_back(r->found);
    expect_length.push_back(r->found ? r->path.length_m() : -1.0);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 2;
  std::atomic<int> mismatches{0};
  auto worker = [&](int thread_index) {
    QueryContext ctx;
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < requests.size(); ++i) {
        QueryRequest request = requests[i];
        // Alternate the shared-cache path so every shard's
        // SnapshotStore sees concurrent first-build races.
        request.options.use_snapshot_cache =
            ((thread_index + round) % 2) == 0;
        auto r = sharded.Route(request, &ctx);
        if (!r.ok() || r->found != expect_found[i] ||
            (r->found &&
             std::abs(r->path.length_m() - expect_length[i]) > 1e-9)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Every request went through: 8 threads x 2 rounds + the reference
  // pass, all attributed to the shards the venue_ids name.
  const CatalogStats stats = catalog.Stats();
  EXPECT_EQ(stats.total_queries, requests.size() * (kThreads * kRounds + 1));
}

}  // namespace
}  // namespace itspq
