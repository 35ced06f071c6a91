// Randomized property suite for the temporal query families:
// kReachability, kNearestFacility, and kMultiStop, across all five
// strategies.
//
// Each sweep family is pinned BIT-IDENTICALLY to an independent
// brute-force oracle: a plain binary-heap temporal Dijkstra that
// replicates the strategy's door-usability semantics (per-arrival ATI
// probe for ITG/S and ITG/A+, the frontier-interval refresh for ITG/A,
// the departure-interval freeze for SNAP, nothing for NTV) but none of
// its machinery — no scratch reuse, no snapshot stores, no Dial
// buckets, no early exit. Distances accumulate as `dist + weight` and
// arrivals project as `dep + dist * kInvWalkSpeedMps`, the exact
// arithmetic the engine documents, so every double must match to the
// bit. kMultiStop is pinned to chained point-to-point Route() calls,
// which is its documented definition.
//
// The request-validation satellites live here too: non-finite
// departures, malformed family parameters, and venue-id binding all
// fail with kInvalidArgument on every strategy.
//
// The whole suite runs under the asan and tsan CI presets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/query_gen.h"
#include "gen/venue_gen.h"
#include "itgraph/checkpoints.h"
#include "itgraph/door_search.h"
#include "itgraph/itgraph.h"
#include "query/router.h"
#include "query/strategies.h"
#include "venue/venue.h"

namespace itspq {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

template <typename T>
T ValueOrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

struct FamilyWorld {
  std::unique_ptr<Venue> venue;
  std::unique_ptr<ItGraph> graph;
  std::unique_ptr<CheckpointSet> checkpoints;
};

// The compact single-floor mall the cross-strategy suite uses: big
// enough for multi-door sweeps, small enough for TSan.
FamilyWorld MakeWorld(uint64_t seed) {
  MallConfig mall_config = MallConfig::Paper();
  mall_config.floors = 1;
  mall_config.shop_rows = 3;
  mall_config.shops_per_row = 20;
  mall_config.seed = seed;
  Venue mall = ValueOrDie(GenerateMall(mall_config), "GenerateMall");

  AtiGenConfig ati_config;
  ati_config.checkpoint_count = 6;
  ati_config.seed = seed + 1;
  FamilyWorld world;
  world.venue = std::make_unique<Venue>(ValueOrDie(
      AssignTemporalVariations(mall, ati_config), "AssignTemporalVariations"));
  world.graph = std::make_unique<ItGraph>(
      ValueOrDie(ItGraph::Build(*world.venue), "ItGraph::Build"));
  world.checkpoints =
      std::make_unique<CheckpointSet>(CheckpointSet::FromGraph(*world.graph));
  return world;
}

const char* const kAllStrategies[] = {"itg-s", "itg-a", "itg-a+", "snap",
                                      "ntv"};

// How the oracle decides whether a relaxation may pass a door — one
// case per strategy's documented temporal-validity semantics.
enum class OracleTv { kSync, kAsync, kStrict, kSnap, kNtv };

OracleTv OracleModeFor(const std::string& name) {
  if (name == "itg-s") return OracleTv::kSync;
  if (name == "itg-a") return OracleTv::kAsync;
  if (name == "itg-a+") return OracleTv::kStrict;
  if (name == "snap") return OracleTv::kSnap;
  return OracleTv::kNtv;
}

// Brute-force sweep: lazy-deletion binary-heap Dijkstra over the whole
// door graph, gated per mode. Returns the family's deterministic
// output — (distance, door)-sorted reachable set, truncated to k for
// kNearestFacility.
std::vector<ReachableDoor> OracleSweep(const ItGraph& graph,
                                       const CheckpointSet& cps,
                                       const QueryRequest& request,
                                       OracleTv mode) {
  auto attached = internal::AttachPoint(graph.venue(), request.source);
  if (!attached.ok()) {
    ADD_FAILURE() << "oracle source attach: "
                  << attached.status().ToString();
    return {};
  }
  const double dep = request.departure.seconds();
  const bool reachability = request.kind == QueryKind::kReachability;
  const size_t n = graph.NumDoors();

  std::vector<double> dist(n, internal::kInfDistance);
  std::vector<char> settled(n, 0);

  // ITG/A's frontier snapshot: door states frozen to the interval of
  // the last popped arrival. Any probe time inside the interval works —
  // checkpoints cover every ATI boundary, so state is constant there.
  double frontier_lo = 0, frontier_hi = -1, frontier_probe = 0;
  auto refresh_frontier = [&](double arrival_abs) {
    const double tod = WrapTimeOfDay(arrival_abs);
    if (tod < frontier_lo || tod >= frontier_hi) {
      const size_t interval = cps.IntervalIndexOf(tod);
      frontier_lo = cps.IntervalStart(interval);
      frontier_hi = cps.IntervalEnd(interval);
      frontier_probe = tod;
    }
  };
  if (mode == OracleTv::kAsync) refresh_frontier(dep);

  auto usable = [&](DoorId door, double arrival_abs) {
    switch (mode) {
      case OracleTv::kSync:
      case OracleTv::kStrict:
        // ITG/A+'s arrival-interval snapshot answers exactly what the
        // ATI answers at the arrival (state is interval-constant).
        return graph.AtiContainsTimeOfDay(door, arrival_abs);
      case OracleTv::kAsync:
        return graph.AtiContainsTimeOfDay(door, frontier_probe);
      case OracleTv::kSnap:
        return graph.AtiContainsTimeOfDay(door, dep);
      case OracleTv::kNtv:
        return true;
    }
    return false;
  };

  using Entry = std::pair<double, size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  auto relax = [&](DoorId door, double nd) {
    const size_t i = static_cast<size_t>(door);
    if (nd >= dist[i]) return;
    if (reachability && nd * kInvWalkSpeedMps > request.budget_seconds) {
      return;
    }
    if (!usable(door, dep + nd * kInvWalkSpeedMps)) return;
    dist[i] = nd;
    queue.push({nd, i});
  };
  for (const auto& [door, offset] : attached->door_offsets) {
    relax(door, offset);
  }

  const CsrAdjacency& adj = graph.adjacency();
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (settled[u]) continue;
    settled[u] = 1;
    if (mode == OracleTv::kAsync) {
      refresh_frontier(dep + d * kInvWalkSpeedMps);
    }
    for (size_t seg = 2 * u; seg < 2 * u + 2; ++seg) {
      const uint32_t begin = adj.seg_offsets[seg];
      const uint32_t end = adj.seg_offsets[seg + 1];
      for (uint32_t k = begin; k < end; ++k) {
        const size_t next = adj.neighbor_ids[k];
        if (settled[next]) continue;
        relax(static_cast<DoorId>(next), d + adj.neighbor_weights[k]);
      }
    }
  }

  std::vector<char> is_facility(n, 0);
  if (!reachability) {
    for (DoorId door : request.facilities) {
      is_facility[static_cast<size_t>(door)] = 1;
    }
  }
  std::vector<ReachableDoor> reachable;
  for (size_t i = 0; i < n; ++i) {
    if (!settled[i]) continue;
    if (!reachability && !is_facility[i]) continue;
    ReachableDoor entry;
    entry.door = static_cast<DoorId>(i);
    entry.distance_m = dist[i];
    entry.arrival_seconds = dep + dist[i] * kInvWalkSpeedMps;
    reachable.push_back(entry);
  }
  std::sort(reachable.begin(), reachable.end(),
            [](const ReachableDoor& a, const ReachableDoor& b) {
              if (a.distance_m != b.distance_m) {
                return a.distance_m < b.distance_m;
              }
              return a.door < b.door;
            });
  if (!reachability && reachable.size() > request.k) {
    reachable.resize(request.k);
  }
  return reachable;
}

// Element-for-element, bit-for-bit agreement with the oracle.
void ExpectBitIdentical(const QueryResult& actual,
                        const std::vector<ReachableDoor>& expected,
                        const std::string& where) {
  EXPECT_EQ(actual.found, !expected.empty()) << where;
  ASSERT_EQ(actual.reachable.size(), expected.size()) << where;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual.reachable[i].door, expected[i].door)
        << where << " entry " << i;
    EXPECT_EQ(actual.reachable[i].distance_m, expected[i].distance_m)
        << where << " entry " << i;
    EXPECT_EQ(actual.reachable[i].arrival_seconds,
              expected[i].arrival_seconds)
        << where << " entry " << i;
  }
  // Sweeps answer with the reachable set only — never a path or legs.
  EXPECT_TRUE(actual.path.steps().empty()) << where;
  EXPECT_TRUE(actual.legs.empty()) << where;
}

std::vector<std::unique_ptr<Router>> MakeAllRouters(const FamilyWorld& world) {
  std::vector<std::unique_ptr<Router>> routers;
  for (const char* name : kAllStrategies) {
    routers.push_back(ValueOrDie(MakeRouter(name, *world.graph), name));
  }
  return routers;
}

TEST(FamilySweepPropertyTest, ReachabilityMatchesOracleBitIdentical) {
  int nonempty = 0;
  for (uint64_t seed : {11u, 22u}) {
    FamilyWorld world = MakeWorld(seed);
    auto routers = MakeAllRouters(world);
    QueryContext context;

    FamilyGenConfig config;
    config.kind = QueryKind::kReachability;
    config.num_queries = 10;
    config.seed = seed + 3;
    config.min_budget_seconds = 60;
    config.max_budget_seconds = 2400;
    const std::vector<QueryRequest> requests =
        ValueOrDie(GenerateFamilyQueries(*world.graph, config),
                   "GenerateFamilyQueries");

    for (size_t qi = 0; qi < requests.size(); ++qi) {
      const QueryRequest& request = requests[qi];
      for (const auto& router : routers) {
        const std::string where = router->name() + " seed " +
                                  std::to_string(seed) + " query " +
                                  std::to_string(qi);
        auto result = router->Route(request, &context);
        ASSERT_TRUE(result.ok()) << where << ": "
                                 << result.status().ToString();
        const std::vector<ReachableDoor> oracle = OracleSweep(
            *world.graph, *world.checkpoints, request,
            OracleModeFor(router->name()));
        ExpectBitIdentical(*result, oracle, where);
        if (!oracle.empty()) ++nonempty;

        // The sweeps are exempt from partition-visited pruning by
        // contract: flipping the option must change nothing.
        QueryRequest unpruned = request;
        unpruned.options.partition_visited_pruning =
            !request.options.partition_visited_pruning;
        auto same = router->Route(unpruned, &context);
        ASSERT_TRUE(same.ok()) << where;
        ExpectBitIdentical(*same, oracle, where + " (pruning flipped)");
      }
    }
  }
  // The workload must actually exercise non-trivial sweeps.
  EXPECT_GE(nonempty, 30);
}

TEST(FamilySweepPropertyTest, ReachabilitySnapshotCachePathIsIdentical) {
  FamilyWorld world = MakeWorld(33);
  QueryContext context;
  FamilyGenConfig config;
  config.kind = QueryKind::kReachability;
  config.num_queries = 8;
  config.seed = 44;
  const std::vector<QueryRequest> requests = ValueOrDie(
      GenerateFamilyQueries(*world.graph, config), "GenerateFamilyQueries");

  for (const char* name : {"itg-a", "itg-a+"}) {
    auto router = ValueOrDie(MakeRouter(name, *world.graph), name);
    for (size_t qi = 0; qi < requests.size(); ++qi) {
      auto plain = router->Route(requests[qi], &context);
      QueryRequest cached_request = requests[qi];
      cached_request.options.use_snapshot_cache = true;
      auto cached = router->Route(cached_request, &context);
      ASSERT_TRUE(plain.ok());
      ASSERT_TRUE(cached.ok());
      const std::string where =
          std::string(name) + " query " + std::to_string(qi);
      ASSERT_EQ(cached->reachable.size(), plain->reachable.size()) << where;
      for (size_t i = 0; i < plain->reachable.size(); ++i) {
        EXPECT_EQ(cached->reachable[i].door, plain->reachable[i].door)
            << where;
        EXPECT_EQ(cached->reachable[i].distance_m,
                  plain->reachable[i].distance_m)
            << where;
      }
    }
  }
}

TEST(FamilySweepPropertyTest, NearestFacilityMatchesOracleBitIdentical) {
  for (uint64_t seed : {11u, 55u}) {
    FamilyWorld world = MakeWorld(seed);
    auto routers = MakeAllRouters(world);
    QueryContext context;

    FamilyGenConfig config;
    config.kind = QueryKind::kNearestFacility;
    config.num_queries = 10;
    config.seed = seed + 5;
    config.min_k = 1;
    config.max_k = 5;
    config.num_facilities = 12;
    const std::vector<QueryRequest> requests =
        ValueOrDie(GenerateFamilyQueries(*world.graph, config),
                   "GenerateFamilyQueries");

    for (size_t qi = 0; qi < requests.size(); ++qi) {
      const QueryRequest& request = requests[qi];
      for (const auto& router : routers) {
        const std::string where = router->name() + " seed " +
                                  std::to_string(seed) + " query " +
                                  std::to_string(qi);
        auto result = router->Route(request, &context);
        ASSERT_TRUE(result.ok()) << where << ": "
                                 << result.status().ToString();
        EXPECT_LE(result->reachable.size(), request.k) << where;
        const std::vector<ReachableDoor> oracle = OracleSweep(
            *world.graph, *world.checkpoints, request,
            OracleModeFor(router->name()));
        ExpectBitIdentical(*result, oracle, where);

        // Every returned facility must be one the request asked for.
        for (const ReachableDoor& entry : result->reachable) {
          EXPECT_NE(std::find(request.facilities.begin(),
                              request.facilities.end(), entry.door),
                    request.facilities.end())
              << where;
        }
      }
    }
  }
}

// Duplicate facility ids collapse: the answer is identical to the
// deduplicated request's.
TEST(FamilySweepPropertyTest, DuplicateFacilitiesCollapse) {
  FamilyWorld world = MakeWorld(66);
  auto router = ValueOrDie(MakeRouter("itg-s", *world.graph), "itg-s");
  QueryContext context;

  FamilyGenConfig config;
  config.kind = QueryKind::kNearestFacility;
  config.num_queries = 3;
  config.seed = 77;
  config.num_facilities = 6;
  std::vector<QueryRequest> requests = ValueOrDie(
      GenerateFamilyQueries(*world.graph, config), "GenerateFamilyQueries");
  for (QueryRequest& request : requests) {
    auto clean = router->Route(request, &context);
    ASSERT_TRUE(clean.ok());
    QueryRequest doubled = request;
    doubled.facilities.insert(doubled.facilities.end(),
                              request.facilities.begin(),
                              request.facilities.end());
    auto dup = router->Route(doubled, &context);
    ASSERT_TRUE(dup.ok());
    ASSERT_EQ(dup->reachable.size(), clean->reachable.size());
    for (size_t i = 0; i < clean->reachable.size(); ++i) {
      EXPECT_EQ(dup->reachable[i].door, clean->reachable[i].door);
      EXPECT_EQ(dup->reachable[i].distance_m, clean->reachable[i].distance_m);
    }
  }
}

TEST(FamilyMultiStopTest, MatchesChainedPointToPointBitIdentical) {
  for (uint64_t seed : {11u, 22u}) {
    FamilyWorld world = MakeWorld(seed);
    auto routers = MakeAllRouters(world);
    QueryContext context;

    FamilyGenConfig config;
    config.kind = QueryKind::kMultiStop;
    config.num_queries = 8;
    config.seed = seed + 7;
    config.num_waypoints = 2;
    const std::vector<QueryRequest> requests =
        ValueOrDie(GenerateFamilyQueries(*world.graph, config),
                   "GenerateFamilyQueries");

    int found_itineraries = 0;
    for (size_t qi = 0; qi < requests.size(); ++qi) {
      const QueryRequest& request = requests[qi];
      for (const auto& router : routers) {
        const std::string where = router->name() + " seed " +
                                  std::to_string(seed) + " query " +
                                  std::to_string(qi);
        auto result = router->Route(request, &context);
        ASSERT_TRUE(result.ok()) << where << ": "
                                 << result.status().ToString();

        // The oracle IS the definition: chain point-to-point legs, each
        // departing at the previous leg's projected arrival.
        QueryRequest leg = request;
        leg.kind = QueryKind::kPointToPoint;
        leg.waypoints.clear();
        IndoorPoint from = request.source;
        double dep = request.departure.seconds();
        std::vector<Path> expected_legs;
        bool expected_found = true;
        const size_t num_legs = request.waypoints.size() + 1;
        for (size_t i = 0; i < num_legs; ++i) {
          leg.source = from;
          leg.target = i < request.waypoints.size() ? request.waypoints[i]
                                                    : request.target;
          leg.departure = Instant(dep);
          auto answer = router->Route(leg, &context);
          ASSERT_TRUE(answer.ok()) << where << " leg " << i;
          if (!answer->found) {
            expected_found = false;
            break;
          }
          dep += answer->path.length_m() * kInvWalkSpeedMps;
          from = leg.target;
          expected_legs.push_back(std::move(answer->path));
        }

        EXPECT_EQ(result->found, expected_found) << where;
        ASSERT_EQ(result->legs.size(), expected_legs.size()) << where;
        for (size_t i = 0; i < expected_legs.size(); ++i) {
          EXPECT_EQ(result->legs[i].length_m(), expected_legs[i].length_m())
              << where << " leg " << i;
          const auto& got = result->legs[i].steps();
          const auto& want = expected_legs[i].steps();
          ASSERT_EQ(got.size(), want.size()) << where << " leg " << i;
          for (size_t s = 0; s < want.size(); ++s) {
            EXPECT_EQ(got[s].door, want[s].door) << where;
            EXPECT_EQ(got[s].cumulative_m, want[s].cumulative_m) << where;
            EXPECT_EQ(got[s].arrival_seconds, want[s].arrival_seconds)
                << where;
          }
        }
        if (result->found && router->name() == "itg-s") ++found_itineraries;
      }
    }
    // The workload must produce complete itineraries, not just refusals.
    EXPECT_GE(found_itineraries, 1) << "seed " << seed;
  }
}

// Departures sitting exactly on ATI checkpoints (and half a second to
// each side) are where interval-indexing off-by-ones would live for the
// sweep families, exactly as for point-to-point.
TEST(FamilySweepPropertyTest, CheckpointBoundaryDepartures) {
  FamilyWorld world = MakeWorld(55);
  auto routers = MakeAllRouters(world);
  QueryContext context;
  ASSERT_FALSE(world.checkpoints->times().empty());

  FamilyGenConfig reach_config;
  reach_config.kind = QueryKind::kReachability;
  reach_config.num_queries = 2;
  reach_config.seed = 91;
  reach_config.min_budget_seconds = 600;
  reach_config.max_budget_seconds = 1200;
  FamilyGenConfig knn_config;
  knn_config.kind = QueryKind::kNearestFacility;
  knn_config.num_queries = 2;
  knn_config.seed = 92;
  knn_config.min_k = 2;
  knn_config.max_k = 3;
  knn_config.num_facilities = 10;

  std::vector<QueryRequest> templates = ValueOrDie(
      GenerateFamilyQueries(*world.graph, reach_config), "reach templates");
  std::vector<QueryRequest> knn_templates = ValueOrDie(
      GenerateFamilyQueries(*world.graph, knn_config), "knn templates");
  templates.insert(templates.end(), knn_templates.begin(),
                   knn_templates.end());

  for (double checkpoint : world.checkpoints->times()) {
    for (double offset : {-0.5, 0.0, 0.5}) {
      for (size_t ti = 0; ti < templates.size(); ++ti) {
        QueryRequest request = templates[ti];
        request.departure = Instant(checkpoint + offset);
        for (const auto& router : routers) {
          const std::string where =
              router->name() + " template " + std::to_string(ti) +
              " depart " + std::to_string(checkpoint + offset);
          auto result = router->Route(request, &context);
          ASSERT_TRUE(result.ok()) << where;
          const std::vector<ReachableDoor> oracle = OracleSweep(
              *world.graph, *world.checkpoints, request,
              OracleModeFor(router->name()));
          ExpectBitIdentical(*result, oracle, where);
        }
      }
    }
  }
}

// The corridor venue whose far door wraps midnight (open 22:00 ->
// 02:00): family answers must project arrivals across the fold the
// same way point-to-point does.
TEST(FamilyMidnightWrapTest, FamiliesProjectAcrossMidnight) {
  Venue::Builder builder;
  const PartitionId room_a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
  const PartitionId corridor = builder.AddPartition(Rect{10, 0, 2000, 10}, 0);
  const PartitionId room_b = builder.AddPartition(Rect{2000, 0, 2010, 10}, 0);
  (void)room_a;
  (void)room_b;
  const DoorId near_door =
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
  const CheckpointSet cps = CheckpointSet::FromGraph(*graph);

  const IndoorPoint ps{{5, 5}, 0};
  QueryContext context;
  for (const char* name : {"itg-s", "itg-a+"}) {
    auto router = ValueOrDie(MakeRouter(name, *graph), name);

    // 23:50 with half an hour of budget: the far door is ~1662.5 s of
    // walking away, so its projected arrival crosses midnight into the
    // wrapped [00:00, 02:00) half of its ATI.
    QueryRequest reach;
    reach.kind = QueryKind::kReachability;
    reach.source = ps;
    reach.departure = Instant(23 * 3600.0 + 50 * 60.0);
    reach.budget_seconds = 1800;
    auto result = router->Route(reach, &context);
    ASSERT_TRUE(result.ok()) << name;
    ExpectBitIdentical(*result, OracleSweep(*graph, cps, reach,
                                            OracleModeFor(name)),
                       std::string(name) + " midnight reach");
    ASSERT_EQ(result->reachable.size(), 2u) << name;
    EXPECT_EQ(result->reachable[0].door, near_door) << name;
    EXPECT_EQ(result->reachable[1].door, far_door) << name;
    EXPECT_GT(result->reachable[1].arrival_seconds, kSecondsPerDay)
        << name << ": far-door arrival should project past midnight";

    // A budget just short of the far door keeps only the near one.
    reach.budget_seconds = 1600;
    result = router->Route(reach, &context);
    ASSERT_TRUE(result.ok()) << name;
    ASSERT_EQ(result->reachable.size(), 1u) << name;
    EXPECT_EQ(result->reachable[0].door, near_door) << name;

    // Midday: the far door is shut, so k = 2 over both doors returns
    // only the near one.
    QueryRequest knn;
    knn.kind = QueryKind::kNearestFacility;
    knn.source = ps;
    knn.departure = Instant::FromHMS(12);
    knn.k = 2;
    knn.facilities = {near_door, far_door};
    auto nearest = router->Route(knn, &context);
    ASSERT_TRUE(nearest.ok()) << name;
    ExpectBitIdentical(*nearest,
                       OracleSweep(*graph, cps, knn, OracleModeFor(name)),
                       std::string(name) + " midday knn");
    ASSERT_EQ(nearest->reachable.size(), 1u) << name;
    EXPECT_EQ(nearest->reachable[0].door, near_door) << name;

    // Multi-stop across midnight: room_a -> corridor -> room_b departs
    // 23:50 and the final leg's arrival lands past the fold.
    QueryRequest trip;
    trip.kind = QueryKind::kMultiStop;
    trip.source = ps;
    trip.waypoints = {IndoorPoint{{1000, 5}, 0}};
    trip.target = IndoorPoint{{2005, 5}, 0};
    trip.departure = Instant(23 * 3600.0 + 50 * 60.0);
    auto itinerary = router->Route(trip, &context);
    ASSERT_TRUE(itinerary.ok()) << name;
    EXPECT_TRUE(itinerary->found) << name;
    ASSERT_EQ(itinerary->legs.size(), 2u) << name;
    ASSERT_FALSE(itinerary->legs[1].steps().empty()) << name;
    EXPECT_GT(itinerary->legs[1].steps().back().arrival_seconds,
              kSecondsPerDay)
        << name;

    // The same trip at midday dies at the far door: found == false with
    // the routed first leg kept as the prefix.
    trip.departure = Instant::FromHMS(12);
    auto refused = router->Route(trip, &context);
    ASSERT_TRUE(refused.ok()) << name;
    EXPECT_FALSE(refused->found) << name;
    EXPECT_EQ(refused->legs.size(), 1u) << name;
  }
}

// ---------------------------------------------------------------------
// Request-validation satellites: every strategy rejects malformed
// family requests with kInvalidArgument before touching search state.

TEST(FamilyValidationTest, NonFiniteDeparturesRejectedEverywhere) {
  FamilyWorld world = MakeWorld(42);
  auto routers = MakeAllRouters(world);
  QueryContext context;

  const IndoorPoint inside =
      IndoorPoint{{world.venue->partition(0).rect.min_x + 1,
                   world.venue->partition(0).rect.min_y + 1},
                  world.venue->partition(0).floor};
  for (const auto& router : routers) {
    for (double bad : {kNan, kInf, -kInf}) {
      for (QueryKind kind :
           {QueryKind::kPointToPoint, QueryKind::kReachability,
            QueryKind::kNearestFacility, QueryKind::kMultiStop}) {
        QueryRequest request;
        request.kind = kind;
        request.source = inside;
        request.target = inside;
        request.departure = Instant(bad);
        request.budget_seconds = 600;
        request.k = 1;
        request.facilities = {0};
        request.waypoints = {inside};
        auto result = router->Route(request, &context);
        ASSERT_FALSE(result.ok())
            << router->name() << " kind " << static_cast<int>(kind);
        EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
            << router->name();
        EXPECT_NE(result.status().message().find("departure"),
                  std::string::npos)
            << router->name() << ": " << result.status().message();
      }
    }
  }
}

TEST(FamilyValidationTest, MalformedFamilyParametersRejected) {
  FamilyWorld world = MakeWorld(42);
  auto routers = MakeAllRouters(world);
  QueryContext context;
  const IndoorPoint inside =
      IndoorPoint{{world.venue->partition(0).rect.min_x + 1,
                   world.venue->partition(0).rect.min_y + 1},
                  world.venue->partition(0).floor};

  for (const auto& router : routers) {
    auto expect_invalid = [&](const QueryRequest& request, const char* what) {
      auto result = router->Route(request, &context);
      ASSERT_FALSE(result.ok()) << router->name() << ": " << what;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << router->name() << ": " << what;
    };

    QueryRequest reach;
    reach.kind = QueryKind::kReachability;
    reach.source = inside;
    reach.departure = Instant::FromHMS(12);
    for (double bad : {kNan, kInf, -1.0}) {
      reach.budget_seconds = bad;
      expect_invalid(reach, "bad budget");
    }
    reach.budget_seconds = 0;  // zero budget is legal: an empty sweep
    auto empty = router->Route(reach, &context);
    ASSERT_TRUE(empty.ok()) << router->name();
    EXPECT_FALSE(empty->found) << router->name();

    QueryRequest knn;
    knn.kind = QueryKind::kNearestFacility;
    knn.source = inside;
    knn.departure = Instant::FromHMS(12);
    knn.k = 0;
    knn.facilities = {0};
    expect_invalid(knn, "k == 0");
    knn.k = 1;
    knn.facilities.clear();
    expect_invalid(knn, "no facilities");
    knn.facilities = {static_cast<DoorId>(world.graph->NumDoors())};
    expect_invalid(knn, "facility out of range");
    knn.facilities = {-1};
    expect_invalid(knn, "negative facility");

    QueryRequest trip;
    trip.kind = QueryKind::kMultiStop;
    trip.source = inside;
    trip.target = inside;
    trip.departure = Instant::FromHMS(12);
    expect_invalid(trip, "no waypoints");
  }
}

TEST(FamilyValidationTest, VenueIdBindingEnforcedPerStrategy) {
  FamilyWorld world = MakeWorld(42);
  const IndoorPoint inside =
      IndoorPoint{{world.venue->partition(0).rect.min_x + 1,
                   world.venue->partition(0).rect.min_y + 1},
                  world.venue->partition(0).floor};
  QueryRequest request;
  request.kind = QueryKind::kReachability;
  request.source = inside;
  request.departure = Instant::FromHMS(12);
  request.budget_seconds = 300;

  RouterBuildOptions bound;
  bound.bound_venue_id = 5;
  QueryContext context;
  for (const char* name : kAllStrategies) {
    auto router = ValueOrDie(MakeRouter(name, *world.graph, bound), name);
    EXPECT_EQ(router->bound_venue_id(), 5) << name;

    request.venue_id = 0;  // unaddressed: always accepted
    EXPECT_TRUE(router->Route(request, &context).ok()) << name;
    request.venue_id = 5;  // the bound id
    EXPECT_TRUE(router->Route(request, &context).ok()) << name;
    request.venue_id = 9;  // someone else's venue
    auto wrong = router->Route(request, &context);
    ASSERT_FALSE(wrong.ok()) << name;
    EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(wrong.status().message().find("venue"), std::string::npos)
        << name;

    // A router built without a binding (the pre-catalog default) still
    // rejects any non-zero id.
    auto unbound = ValueOrDie(MakeRouter(name, *world.graph), name);
    EXPECT_EQ(unbound->bound_venue_id(), 0) << name;
    request.venue_id = 3;
    auto r = unbound->Route(request, &context);
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << name;
    request.venue_id = 0;
  }
}

// Mixed-kind batches ride the same RouteBatch plumbing: every slot
// answers exactly what a direct Route() call answers.
TEST(FamilyBatchTest, MixedKindBatchMatchesSequentialRoutes) {
  FamilyWorld world = MakeWorld(42);
  auto router = ValueOrDie(MakeRouter("itg-a+", *world.graph), "itg-a+");

  std::vector<QueryRequest> requests;
  for (QueryKind kind : {QueryKind::kReachability,
                         QueryKind::kNearestFacility, QueryKind::kMultiStop}) {
    FamilyGenConfig config;
    config.kind = kind;
    config.num_queries = 4;
    config.seed = 17 + static_cast<uint64_t>(kind);
    auto generated = ValueOrDie(GenerateFamilyQueries(*world.graph, config),
                                "GenerateFamilyQueries");
    requests.insert(requests.end(), generated.begin(), generated.end());
  }

  QueryContext context;
  std::vector<StatusOr<QueryResult>> sequential;
  for (const QueryRequest& request : requests) {
    sequential.push_back(router->Route(request, &context));
  }

  for (int num_threads : {1, 4}) {
    BatchOptions options;
    options.num_threads = num_threads;
    const auto batched = router->RouteBatch(requests, options);
    ASSERT_EQ(batched.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const std::string where =
          std::to_string(num_threads) + " threads slot " + std::to_string(i);
      ASSERT_EQ(batched[i].ok(), sequential[i].ok()) << where;
      if (!batched[i].ok()) continue;
      EXPECT_EQ(batched[i]->found, sequential[i]->found) << where;
      ASSERT_EQ(batched[i]->reachable.size(), sequential[i]->reachable.size())
          << where;
      for (size_t e = 0; e < sequential[i]->reachable.size(); ++e) {
        EXPECT_EQ(batched[i]->reachable[e].door,
                  sequential[i]->reachable[e].door)
            << where;
        EXPECT_EQ(batched[i]->reachable[e].distance_m,
                  sequential[i]->reachable[e].distance_m)
            << where;
      }
      ASSERT_EQ(batched[i]->legs.size(), sequential[i]->legs.size()) << where;
      for (size_t l = 0; l < sequential[i]->legs.size(); ++l) {
        EXPECT_EQ(batched[i]->legs[l].length_m(),
                  sequential[i]->legs[l].length_m())
            << where;
      }
    }
  }
}

// ---------------------------------------------------------------------
// SearchStats::edges_scanned: the count of adjacency entries walked.

// An NTV sweep with a budget no walk exhausts settles every door of a
// connected venue, and a settled door walks both of its CSR segments,
// so the count is exactly the adjacency's size.
TEST(FamilyEdgeCountTest, UnboundedNtvReachabilityScansEveryEdge) {
  // Three rooms off one hall, with doors between neighbouring rooms.
  Venue::Builder builder;
  const PartitionId hall = builder.AddPartition(Rect{0, 10, 30, 20}, 0);
  const PartitionId room_a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
  const PartitionId room_b = builder.AddPartition(Rect{10, 0, 20, 10}, 0);
  const PartitionId room_c = builder.AddPartition(Rect{20, 0, 30, 10}, 0);
  builder.AddDoor(Point2d{5, 10}, 0, room_a, hall);
  builder.AddDoor(Point2d{15, 10}, 0, room_b, hall);
  builder.AddDoor(Point2d{25, 10}, 0, room_c, hall);
  builder.AddDoor(Point2d{10, 5}, 0, room_a, room_b);
  builder.AddDoor(Point2d{20, 5}, 0, room_b, room_c);
  auto venue = std::move(builder).Build();
  ASSERT_TRUE(venue.ok());
  auto graph = ItGraph::Build(*venue);
  ASSERT_TRUE(graph.ok());
  auto router = ValueOrDie(MakeRouter("ntv", *graph), "ntv");

  QueryRequest reach;
  reach.kind = QueryKind::kReachability;
  reach.source = IndoorPoint{{5, 5}, 0};
  reach.departure = Instant::FromHMS(12);
  reach.budget_seconds = 1e9;
  QueryContext context;
  auto result = router->Route(reach, &context);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reachable.size(), graph->NumDoors());
  EXPECT_EQ(result->stats.doors_popped, graph->NumDoors());
  EXPECT_EQ(result->stats.edges_scanned,
            graph->adjacency().neighbor_ids.size());
}

// A multi-stop query counts what its legs count, routed one at a time.
TEST(FamilyEdgeCountTest, MultiStopSumsItsLegs) {
  FamilyWorld world = MakeWorld(11);
  auto routers = MakeAllRouters(world);
  QueryContext context;
  FamilyGenConfig config;
  config.kind = QueryKind::kMultiStop;
  config.num_queries = 4;
  config.seed = 18;
  config.num_waypoints = 2;
  config.min_departure_seconds = 10 * 3600;  // midday: legs get searched
  config.max_departure_seconds = 18 * 3600;
  const std::vector<QueryRequest> requests = ValueOrDie(
      GenerateFamilyQueries(*world.graph, config), "GenerateFamilyQueries");

  for (size_t qi = 0; qi < requests.size(); ++qi) {
    const QueryRequest& request = requests[qi];
    for (const auto& router : routers) {
      const std::string where = router->name() + " query " + std::to_string(qi);
      auto result = router->Route(request, &context);
      ASSERT_TRUE(result.ok()) << where;

      QueryRequest leg = request;
      leg.kind = QueryKind::kPointToPoint;
      leg.waypoints.clear();
      double dep = request.departure.seconds();
      size_t edges = 0, pops = 0;
      for (size_t i = 0; i <= request.waypoints.size(); ++i) {
        leg.source = i == 0 ? request.source : request.waypoints[i - 1];
        leg.target = i < request.waypoints.size() ? request.waypoints[i]
                                                  : request.target;
        leg.departure = Instant(dep);
        auto answer = router->Route(leg, &context);
        ASSERT_TRUE(answer.ok()) << where << " leg " << i;
        edges += answer->stats.edges_scanned;
        pops += answer->stats.doors_popped;
        if (!answer->found) break;
        dep += answer->path.length_m() * kInvWalkSpeedMps;
      }
      EXPECT_GT(result->stats.edges_scanned, 0u) << where;
      EXPECT_EQ(result->stats.edges_scanned, edges) << where;
      EXPECT_EQ(result->stats.doors_popped, pops) << where;
    }
  }
}

}  // namespace
}  // namespace itspq
