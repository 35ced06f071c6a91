// Randomized cross-strategy property suite.
//
// For seeded random venues, temporal variations, and query workloads,
// the five strategies are pinned to each other by the properties the
// paper's design implies, instead of by hand-picked expected values:
//
//   * ITG/S and ITG/A+ are exact: identical found flags and costs.
//   * ITG/A answers inside a correctness envelope: identical to ITG/S,
//     or conservatively worse (longer / not found), or — when it
//     undercuts ITG/S via its stale frontier snapshot — its path must
//     fail VerifyPath. Gross divergence (>10% of queries) fails.
//   * NTV ignores ATIs entirely, so it is a true lower bound: it finds
//     a route whenever ITG/S does, never a longer one.
//   * SNAP freezes the reduced graph at departure, so any answer that
//     beats ITG/S (or answers where ITG/S proves nothing valid exists)
//     must violate rule 1 — VerifyPath has to reject it.
//   * Every path ITG/S or ITG/A+ returns passes VerifyPath, including
//     departures exactly at ATI checkpoints and walks that cross
//     midnight.
//
// The whole suite runs under the asan and tsan CI presets.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/query_gen.h"
#include "gen/venue_gen.h"
#include "itgraph/checkpoints.h"
#include "itgraph/graph_update.h"
#include "itgraph/itgraph.h"
#include "query/router.h"
#include "query/strategies.h"
#include "query/verifier.h"
#include "reference_search.h"
#include "venue/venue.h"

namespace itspq {
namespace {

constexpr double kLenEps = 1e-6;

// World construction runs before the assertions under test; a
// half-built world would only resurface as undefined behavior later,
// so fail loudly with the status instead.
template <typename T>
T ValueOrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

struct PropertyWorld {
  std::unique_ptr<Venue> venue;
  std::unique_ptr<ItGraph> graph;
  std::vector<double> checkpoints;
  std::vector<QueryInstance> queries;
};

// A compact single-floor mall: big enough for multi-door routes, small
// enough that the whole suite stays fast under TSan.
PropertyWorld MakeWorld(uint64_t seed) {
  MallConfig mall_config = MallConfig::Paper();
  mall_config.floors = 1;
  mall_config.shop_rows = 3;
  mall_config.shops_per_row = 20;
  mall_config.seed = seed;
  Venue mall = ValueOrDie(GenerateMall(mall_config), "GenerateMall");

  AtiGenConfig ati_config;
  ati_config.checkpoint_count = 6;
  ati_config.seed = seed + 1;
  PropertyWorld world;
  world.venue = std::make_unique<Venue>(ValueOrDie(
      AssignTemporalVariations(mall, ati_config, &world.checkpoints),
      "AssignTemporalVariations"));
  world.graph = std::make_unique<ItGraph>(
      ValueOrDie(ItGraph::Build(*world.venue), "ItGraph::Build"));

  QueryGenConfig query_config;
  query_config.s2t_distance = 600;
  query_config.tolerance = 250;
  query_config.num_pairs = 6;
  query_config.seed = seed + 2;
  world.queries =
      ValueOrDie(GenerateQueries(*world.graph, query_config),
                 "GenerateQueries");
  return world;
}

struct StrategyAnswers {
  QueryResult itg_s, itg_a, itg_ap, snap, ntv;
  /// ITG/S with partition-visited pruning off: exact temporal Dijkstra,
  /// the ground-truth optimum the bound properties anchor on (the
  /// pruned checkers may legitimately return longer valid paths —
  /// that's what ablation_pruning measures).
  QueryResult optimum;
};

// Routes one request through all five strategies plus the unpruned
// ground truth, failing the test on any transport-level error
// (endpoints are generated inside the venue).
StrategyAnswers RouteAll(const PropertyWorld& world,
                         const std::vector<std::unique_ptr<Router>>& routers,
                         const QueryRequest& request, QueryContext* context) {
  StrategyAnswers answers;
  QueryResult* slots[] = {&answers.itg_s, &answers.itg_a, &answers.itg_ap,
                          &answers.snap, &answers.ntv};
  for (size_t i = 0; i < routers.size(); ++i) {
    auto result = routers[i]->Route(request, context);
    EXPECT_TRUE(result.ok()) << routers[i]->name() << ": "
                             << result.status().ToString();
    if (result.ok()) *slots[i] = *std::move(result);
  }
  QueryRequest unpruned = request;
  unpruned.options.partition_visited_pruning = false;
  auto result = routers[0]->Route(unpruned, context);  // itg-s
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) answers.optimum = *std::move(result);
  (void)world;
  return answers;
}

std::vector<std::unique_ptr<Router>> MakeAllRouters(
    const PropertyWorld& world) {
  std::vector<std::unique_ptr<Router>> routers;
  for (const char* name : {"itg-s", "itg-a", "itg-a+", "snap", "ntv"}) {
    routers.push_back(ValueOrDie(MakeRouter(name, *world.graph), name));
  }
  return routers;
}

// Applies every cross-strategy property to one query's answers.
// Returns whether ITG/A agreed exactly with ITG/S.
bool CheckProperties(const PropertyWorld& world, const QueryRequest& request,
                     const StrategyAnswers& a, const std::string& where) {
  const ItGraph& graph = *world.graph;

  // ITG/S == ITG/A+ exactly.
  EXPECT_EQ(a.itg_s.found, a.itg_ap.found) << where;
  if (a.itg_s.found && a.itg_ap.found) {
    EXPECT_NEAR(a.itg_s.path.length_m(), a.itg_ap.path.length_m(), kLenEps)
        << where;
  }

  // Rule-1 validity of the exact checkers' paths (pruned and not).
  if (a.itg_s.found) {
    EXPECT_TRUE(VerifyPath(graph, a.itg_s.path).ok()) << where;
  }
  if (a.itg_ap.found) {
    EXPECT_TRUE(VerifyPath(graph, a.itg_ap.path).ok()) << where;
  }
  if (a.optimum.found) {
    EXPECT_TRUE(VerifyPath(graph, a.optimum.path).ok()) << where;
  }

  // The pruned checker never beats the unpruned optimum, and whenever
  // it answers, a valid route certainly exists.
  if (a.itg_s.found) {
    EXPECT_TRUE(a.optimum.found) << where;
    if (a.optimum.found) {
      EXPECT_LE(a.optimum.path.length_m(),
                a.itg_s.path.length_m() + kLenEps)
          << where;
    }
  }

  // NTV is a lower bound on every valid route.
  if (a.optimum.found) {
    EXPECT_TRUE(a.ntv.found) << where;
    if (a.ntv.found) {
      EXPECT_LE(a.ntv.path.length_m(),
                a.optimum.path.length_m() + kLenEps)
          << where;
    }
  }

  // SNAP runs on a subgraph of NTV's static graph.
  if (a.snap.found) {
    EXPECT_TRUE(a.ntv.found) << where;
    if (a.ntv.found) {
      EXPECT_GE(a.snap.path.length_m() + kLenEps, a.ntv.path.length_m())
          << where;
    }
  }

  // A SNAP answer that beats the exact optimum — or exists where no
  // temporally valid route does — must be a rule-1 violation.
  if (a.snap.found &&
      (!a.optimum.found ||
       a.snap.path.length_m() < a.optimum.path.length_m() - kLenEps)) {
    EXPECT_FALSE(VerifyPath(graph, a.snap.path).ok()) << where;
  }

  // The ITG/A envelope: identical to ITG/S, conservatively worse, or —
  // when its stale frontier undercuts the exact optimum — temporally
  // invalid.
  const bool a_agrees =
      a.itg_a.found == a.itg_s.found &&
      (!a.itg_a.found || std::abs(a.itg_a.path.length_m() -
                                  a.itg_s.path.length_m()) <= kLenEps);
  if (a.itg_a.found &&
      (!a.optimum.found ||
       a.itg_a.path.length_m() < a.optimum.path.length_m() - kLenEps)) {
    EXPECT_FALSE(VerifyPath(graph, a.itg_a.path).ok()) << where;
  }

  (void)request;
  return a_agrees;
}

TEST(CrossStrategyPropertyTest, RandomWorldsAgreeAcrossStrategies) {
  int total = 0;
  int itg_a_agreements = 0;
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    PropertyWorld world = MakeWorld(seed);
    auto routers = MakeAllRouters(world);
    QueryContext context;
    for (size_t pair = 0; pair < world.queries.size(); ++pair) {
      const QueryInstance& q = world.queries[pair];
      for (int hour : {3, 7, 9, 11, 13, 15, 17, 19, 21, 23}) {
        const QueryRequest request{q.ps, q.pt, Instant::FromHMS(hour),
                                   QueryOptions()};
        const std::string where = "seed " + std::to_string(seed) + " pair " +
                                  std::to_string(pair) + " hour " +
                                  std::to_string(hour);
        const StrategyAnswers answers =
            RouteAll(world, routers, request, &context);
        ++total;
        if (CheckProperties(world, request, answers, where)) {
          ++itg_a_agreements;
        }
      }
    }
  }
  // The satellite contract: at least 200 randomized queries.
  EXPECT_GE(total, 200);
  // ITG/A's frontier gap shows up near closing checkpoints only; if it
  // disagrees with ITG/S on more than 10% of a broad workload,
  // something beyond the documented gap broke.
  EXPECT_GE(itg_a_agreements, total - total / 10)
      << itg_a_agreements << "/" << total << " ITG/A agreements";
}

// Departures sitting exactly on ATI boundaries (and half a second to
// each side) are where interval indexing off-by-ones would live.
TEST(CrossStrategyPropertyTest, CheckpointBoundaryDepartures) {
  for (uint64_t seed : {55u, 66u}) {
    PropertyWorld world = MakeWorld(seed);
    auto routers = MakeAllRouters(world);
    QueryContext context;
    ASSERT_FALSE(world.checkpoints.empty());
    for (double checkpoint : world.checkpoints) {
      for (double offset : {-0.5, 0.0, 0.5}) {
        for (size_t pair = 0; pair < 3 && pair < world.queries.size();
             ++pair) {
          const QueryInstance& q = world.queries[pair];
          const QueryRequest request{q.ps, q.pt,
                                     Instant(checkpoint + offset),
                                     QueryOptions()};
          const std::string where =
              "seed " + std::to_string(seed) + " pair " +
              std::to_string(pair) + " depart " +
              std::to_string(checkpoint + offset);
          const StrategyAnswers answers =
              RouteAll(world, routers, request, &context);
          CheckProperties(world, request, answers, where);
        }
      }
    }
  }
}

// SNAP and NTV are conventional door-graph Dijkstras over a static
// mask, so their point-to-point answers are pinned bit for bit to
// DoorDijkstra + BestCompletion: the departure interval's mask for SNAP,
// none for NTV. Both ignore partition-visited pruning, so either setting
// must give the same answer. Departures cover the day, every checkpoint
// boundary, and walks that cross midnight.
TEST(CrossStrategyPropertyTest, SnapAndNtvMatchDoorDijkstraExactly) {
  for (uint64_t seed : {11u, 55u}) {
    PropertyWorld world = MakeWorld(seed);
    const ItGraph& graph = *world.graph;
    const CheckpointSet cps = CheckpointSet::FromGraph(graph);
    auto snap = ValueOrDie(MakeRouter("snap", graph), "snap");
    auto ntv = ValueOrDie(MakeRouter("ntv", graph), "ntv");

    std::vector<double> departures = world.checkpoints;
    for (int hour : {3, 9, 12, 17, 21}) {
      departures.push_back(hour * 3600.0);
    }
    departures.push_back(kSecondsPerDay - 300.0);
    departures.push_back(kSecondsPerDay - 60.0);
    departures.push_back(kSecondsPerDay + 10 * 3600.0);

    QueryContext context;
    int found = 0;
    for (size_t pair = 0; pair < world.queries.size(); ++pair) {
      const QueryInstance& q = world.queries[pair];
      const auto src =
          ValueOrDie(internal::AttachPoint(graph.venue(), q.ps), "source");
      const auto dst =
          ValueOrDie(internal::AttachPoint(graph.venue(), q.pt), "target");
      for (double departure : departures) {
        const GraphSnapshot mask = BuildSnapshot(
            graph, cps, cps.IntervalIndexOf(WrapTimeOfDay(departure)));
        for (const Router* router : {snap.get(), ntv.get()}) {
          const internal::DoorSearchResult reference = internal::DoorDijkstra(
              graph, src.door_offsets, router == snap.get() ? &mask.open
                                                            : nullptr);
          const double expected =
              internal::BestCompletion(src, dst, q.ps.p, q.pt.p,
                                       [&](DoorId door) {
                                         return reference.Dist(
                                             static_cast<size_t>(door));
                                       })
                  .first;
          for (bool pruning : {true, false}) {
            QueryRequest request{q.ps, q.pt, Instant(departure),
                                 QueryOptions()};
            request.options.partition_visited_pruning = pruning;
            const std::string where =
                router->name() + " seed " + std::to_string(seed) + " pair " +
                std::to_string(pair) + " depart " + std::to_string(departure) +
                (pruning ? " pruned" : " unpruned");
            auto result = router->Route(request, &context);
            ASSERT_TRUE(result.ok()) << where;
            ASSERT_EQ(result->found, std::isfinite(expected)) << where;
            if (!result->found) continue;
            ++found;
            EXPECT_EQ(result->path.length_m(), expected) << where;
          }
        }
      }
    }
    EXPECT_GT(found, 0) << "seed " << seed << ": no answers, test is vacuous";
  }
}

// A hand-built corridor venue whose far door is open 22:00 -> 02:00
// (wrapping midnight). The ~28-minute walk pins down arrival-time
// projection across the midnight fold.
TEST(CrossStrategyPropertyTest, MidnightWrapAti) {
  Venue::Builder builder;
  const PartitionId room_a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
  const PartitionId corridor = builder.AddPartition(Rect{10, 0, 2000, 10}, 0);
  const PartitionId room_b = builder.AddPartition(Rect{2000, 0, 2010, 10}, 0);
  builder.AddDoor(Point2d{10, 5}, 0, room_a, corridor);  // always open
  const DoorId far_door =
      builder.AddDoor(Point2d{2000, 5}, 0, corridor, room_b);
  ASSERT_TRUE(
      builder.SetDoorAti(far_door, {TimeInterval{22 * 3600.0, 2 * 3600.0}})
          .ok());
  auto venue = std::move(builder).Build();
  ASSERT_TRUE(venue.ok());
  auto graph = ItGraph::Build(*venue);
  ASSERT_TRUE(graph.ok());

  const IndoorPoint ps{{5, 5}, 0};
  const IndoorPoint pt{{2005, 5}, 0};
  QueryContext context;
  for (const char* name : {"itg-s", "itg-a+"}) {
    auto made = MakeRouter(name, *graph);
    ASSERT_TRUE(made.ok());
    const std::unique_ptr<Router>& router = *made;

    auto route_at = [&](double departure_seconds) {
      auto result = router->Route(
          QueryRequest{ps, pt, Instant(departure_seconds), QueryOptions()},
          &context);
      EXPECT_TRUE(result.ok()) << name;
      return *std::move(result);
    };

    // 23:00: the walk stays inside [22:00, 24:00).
    QueryResult before_midnight = route_at(23 * 3600.0);
    EXPECT_TRUE(before_midnight.found) << name;
    EXPECT_TRUE(VerifyPath(*graph, before_midnight.path).ok()) << name;

    // 23:50: arrival at the far door lands past midnight, inside the
    // wrapped [00:00, 02:00) half of the interval.
    QueryResult across_midnight = route_at(23 * 3600.0 + 50 * 60.0);
    EXPECT_TRUE(across_midnight.found) << name;
    EXPECT_TRUE(VerifyPath(*graph, across_midnight.path).ok()) << name;
    ASSERT_FALSE(across_midnight.path.steps().empty());
    EXPECT_GT(across_midnight.path.steps().back().arrival_seconds,
              kSecondsPerDay)
        << name << ": far-door arrival should project past midnight";

    // 01:45: the walker reaches the far door after it shut at 02:00.
    EXPECT_FALSE(route_at(1 * 3600.0 + 45 * 60.0).found) << name;

    // Midday: shut the whole time.
    EXPECT_FALSE(route_at(12 * 3600.0).found) << name;

    // Arrival lands ~1.5 s before / after the 02:00 close: the walk
    // takes 1995 m / 1.2 mps = 1662.5 s to the far door.
    EXPECT_TRUE(route_at(2 * 3600.0 - 1662.5 - 1.5).found) << name;
    EXPECT_FALSE(route_at(2 * 3600.0 - 1662.5 + 1.5).found) << name;
  }

  // NTV ignores the ATI and always finds the corridor route.
  auto ntv = MakeRouter("ntv", *graph);
  ASSERT_TRUE(ntv.ok());
  auto midday = (*ntv)->Route(
      QueryRequest{ps, pt, Instant::FromHMS(12), QueryOptions()}, &context);
  ASSERT_TRUE(midday.ok());
  EXPECT_TRUE(midday->found);
}

// The eviction-transparency property: a SnapshotStore squeezed to two
// resident snapshots (forcing LRU evictions all day) must answer the
// randomized workload bit-identically to an unbudgeted store —
// eviction may cost rebuilds, never correctness.
TEST(CrossStrategyPropertyTest, BudgetedEvictingStoresMatchKeepAll) {
  for (uint64_t seed : {11u, 22u}) {
    PropertyWorld world = MakeWorld(seed);
    auto unbudgeted =
        ValueOrDie(MakeRouter("itg-a+", *world.graph), "unbudgeted");

    const CheckpointSet cps = CheckpointSet::FromGraph(*world.graph);
    const size_t snap_bytes = BuildSnapshot(*world.graph, cps, 0).TotalBytes();
    RouterBuildOptions tight;
    // Two resident snapshots — far below |T|+1 intervals, so the store
    // evicts continuously.
    tight.snapshot_cache.budget_bytes = 2 * snap_bytes;
    auto evicting =
        ValueOrDie(MakeRouter("itg-a+", *world.graph, tight), "evicting");

    QueryOptions cached;
    cached.use_snapshot_cache = true;
    QueryContext context;
    for (size_t pair = 0; pair < world.queries.size(); ++pair) {
      const QueryInstance& q = world.queries[pair];
      for (int hour : {3, 7, 9, 11, 13, 15, 17, 19, 21, 23}) {
        const QueryRequest request{q.ps, q.pt, Instant::FromHMS(hour),
                                   cached};
        const std::string where = "seed " + std::to_string(seed) + " pair " +
                                  std::to_string(pair) + " hour " +
                                  std::to_string(hour);
        auto full = unbudgeted->Route(request, &context);
        auto tight_result = evicting->Route(request, &context);
        ASSERT_TRUE(full.ok()) << where;
        ASSERT_TRUE(tight_result.ok()) << where;
        EXPECT_EQ(full->found, tight_result->found) << where;
        if (full->found && tight_result->found) {
          EXPECT_EQ(full->path.length_m(), tight_result->path.length_m())
              << where;
          EXPECT_EQ(full->path.steps().size(),
                    tight_result->path.steps().size())
              << where;
        }
      }
    }
    const CacheStatsSnapshot stats = evicting->CacheStats();
    EXPECT_GT(stats.evictions, 0u) << "budget never bound";
    EXPECT_LE(stats.resident_bytes, tight.snapshot_cache.budget_bytes);
  }
}

}  // namespace
}  // namespace itspq
