#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/query_gen.h"
#include "gen/venue_gen.h"
#include "gen/workload_gen.h"
#include "itgraph/checkpoints.h"
#include "itgraph/itgraph.h"
#include "query/strategies.h"
#include "query/venue_catalog.h"
#include "reference_search.h"

namespace itspq {
namespace {

TEST(VenueGenTest, PaperCountsPerFloor) {
  MallConfig config = MallConfig::Paper();
  config.floors = 1;
  const auto venue = GenerateMall(config);
  ASSERT_TRUE(venue.ok());
  EXPECT_EQ(venue->NumPartitions(), 141u);
  EXPECT_EQ(venue->NumDoors(), 224u);
}

TEST(VenueGenTest, PaperCountsFiveFloors) {
  const auto venue = GenerateMall(MallConfig::Paper());
  ASSERT_TRUE(venue.ok());
  EXPECT_EQ(venue->NumPartitions(), 705u);
  // 5 x 224 horizontal doors + 2 staircases x 4 floor gaps.
  EXPECT_EQ(venue->NumDoors(), 1128u);
}

TEST(VenueGenTest, EveryDoorSitsInBothItsPartitions) {
  MallConfig config = MallConfig::Paper();
  config.floors = 2;
  const auto venue = GenerateMall(config);
  ASSERT_TRUE(venue.ok());
  for (size_t d = 0; d < venue->NumDoors(); ++d) {
    const Door& door = venue->door(static_cast<DoorId>(d));
    for (PartitionId p : door.partitions) {
      EXPECT_TRUE(venue->partition(p).rect.Contains(door.pos))
          << "door " << d << " outside partition " << p;
    }
  }
}

TEST(VenueGenTest, RejectsBadConfig) {
  MallConfig config;
  config.floors = 0;
  EXPECT_FALSE(GenerateMall(config).ok());
  config = MallConfig::Paper();
  config.corridor_height_m = 500;  // bands exceed the floor
  EXPECT_FALSE(GenerateMall(config).ok());
}

TEST(AtiGenTest, ChecksGraphCheckpointsMatchPool) {
  MallConfig config = MallConfig::Paper();
  config.floors = 1;
  const auto mall = GenerateMall(config);
  ASSERT_TRUE(mall.ok());

  AtiGenConfig ati_config;
  ati_config.checkpoint_count = 8;
  std::vector<double> pool;
  const auto varied = AssignTemporalVariations(*mall, ati_config, &pool);
  ASSERT_TRUE(varied.ok());
  ASSERT_EQ(pool.size(), 8u);

  const auto graph = ItGraph::Build(*varied);
  ASSERT_TRUE(graph.ok());
  const CheckpointSet cps = CheckpointSet::FromGraph(*graph);
  // Every derived checkpoint comes from the pool (some pool entries may
  // go unused on tiny venues, never the reverse).
  const std::set<double> pool_set(pool.begin(), pool.end());
  for (double t : cps.times()) {
    EXPECT_TRUE(pool_set.count(t)) << "checkpoint " << t << " not in pool";
  }
  EXPECT_LE(cps.NumCheckpoints(), pool.size());
  EXPECT_GE(cps.NumCheckpoints(), 2u);
}

TEST(AtiGenTest, ShopHoursShapeAndRejects) {
  MallConfig config = MallConfig::Paper();
  config.floors = 1;
  const auto mall = GenerateMall(config);
  ASSERT_TRUE(mall.ok());

  AtiGenConfig ati_config;
  const auto varied = AssignTemporalVariations(*mall, ati_config);
  ASSERT_TRUE(varied.ok());
  const auto graph = ItGraph::Build(*varied);
  ASSERT_TRUE(graph.ok());
  // All-horizontal mall (1 floor): every door varies, open at noon,
  // closed at 3 am.
  for (size_t d = 0; d < graph->NumDoors(); ++d) {
    const AtiRow ati = graph->Ati(static_cast<DoorId>(d));
    EXPECT_FALSE(ati.IsAlwaysOpen());
    EXPECT_TRUE(ati.ContainsTimeOfDay(Instant::FromHMS(12).seconds()));
    EXPECT_FALSE(ati.ContainsTimeOfDay(Instant::FromHMS(3).seconds()));
  }

  AtiGenConfig bad;
  bad.checkpoint_count = 1;
  EXPECT_FALSE(AssignTemporalVariations(*mall, bad).ok());
}

TEST(AtiGenTest, StairDoorsStayAlwaysOpen) {
  MallConfig config = MallConfig::Paper();
  config.floors = 2;
  const auto mall = GenerateMall(config);
  ASSERT_TRUE(mall.ok());
  const auto varied = AssignTemporalVariations(*mall, AtiGenConfig{});
  ASSERT_TRUE(varied.ok());
  size_t vertical = 0;
  for (size_t d = 0; d < varied->NumDoors(); ++d) {
    const Door& door = varied->door(static_cast<DoorId>(d));
    const int fa = varied->partition(door.partitions[0]).floor;
    const int fb = varied->partition(door.partitions[1]).floor;
    if (fa != fb) {
      ++vertical;
      EXPECT_TRUE(varied->DoorAti(static_cast<DoorId>(d)).empty());
    }
  }
  EXPECT_EQ(vertical, 2u);  // two staircases, one floor gap
}

TEST(QueryGenTest, PairsLandInTheBand) {
  MallConfig config = MallConfig::Paper();
  config.floors = 2;
  const auto mall = GenerateMall(config);
  ASSERT_TRUE(mall.ok());
  const auto varied = AssignTemporalVariations(*mall, AtiGenConfig{});
  ASSERT_TRUE(varied.ok());
  const auto graph = ItGraph::Build(*varied);
  ASSERT_TRUE(graph.ok());

  QueryGenConfig query_config;
  query_config.s2t_distance = 900;
  query_config.tolerance = 90;
  query_config.num_pairs = 5;
  const auto queries = GenerateQueries(*graph, query_config);
  ASSERT_TRUE(queries.ok());
  ASSERT_EQ(queries->size(), 5u);
  for (const QueryInstance& q : *queries) {
    EXPECT_GE(q.s2t_m, 810);
    EXPECT_LE(q.s2t_m, 990);
    EXPECT_FALSE(varied->LocateAll(q.ps).empty());
    EXPECT_FALSE(varied->LocateAll(q.pt).empty());
  }
}

TEST(QueryGenTest, ImpossibleBandErrs) {
  MallConfig config = MallConfig::Paper();
  config.floors = 1;
  const auto mall = GenerateMall(config);
  ASSERT_TRUE(mall.ok());
  const auto graph = ItGraph::Build(*mall);
  ASSERT_TRUE(graph.ok());

  QueryGenConfig query_config;
  query_config.s2t_distance = 1e6;  // no such pair in a 1368 m mall
  query_config.tolerance = 10;
  query_config.max_source_attempts = 5;
  query_config.targets_per_source = 10;
  const auto queries = GenerateQueries(*graph, query_config);
  EXPECT_FALSE(queries.ok());
  EXPECT_EQ(queries.status().code(), StatusCode::kResourceExhausted);
}

// Two three-room buildings with no way between them: a sweep from one
// reaches none of the other's doors.
FamilyWorld MakeTwoBuildingWorld() {
  Venue::Builder builder;
  for (const double x0 : {0.0, 100.0}) {
    PartitionId rooms[3];
    for (int r = 0; r < 3; ++r) {
      rooms[r] = builder.AddPartition(
          Rect{x0 + 10.0 * r, 0, x0 + 10.0 * (r + 1), 10}, 0);
    }
    builder.AddDoor(Point2d{x0 + 10, 5}, 0, rooms[0], rooms[1]);
    builder.AddDoor(Point2d{x0 + 20, 5}, 0, rooms[1], rooms[2]);
  }
  auto venue = std::move(builder).Build();
  EXPECT_TRUE(venue.ok()) << venue.status().ToString();
  return MakeWorldFrom(*std::move(venue));
}

// GenerateQueries measures each pair on the router's NTV sweep; every
// pair's distance must equal the static reference Dijkstra + the shared
// completion bit for bit: on Dial's buckets, on the heap frontier, and
// where a source cannot reach every door.
TEST(QueryGenTest, PairDistancesMatchTheStaticReferenceExactly) {
  struct Case {
    const char* name;
    FamilyWorld world;
    double s2t_distance, tolerance;
  };
  Case cases[] = {{"buckets", MakeWorldFrom(MakeMall(11)), 800, 600},
                  {"heap", MakeIneligibleWorld(11), 800, 600},
                  {"two buildings", MakeTwoBuildingWorld(), 15, 15}};
  EXPECT_TRUE(cases[0].world.graph->adjacency().BucketEligible());
  for (const Case& c : cases) {
    const ItGraph& graph = *c.world.graph;
    QueryGenConfig config;
    config.s2t_distance = c.s2t_distance;
    config.tolerance = c.tolerance;
    config.num_pairs = 60;
    config.targets_per_source = 6;
    const auto queries = GenerateQueries(graph, config);
    ASSERT_TRUE(queries.ok()) << c.name << ": " << queries.status().ToString();
    ASSERT_EQ(queries->size(), 60u) << c.name;
    for (size_t i = 0; i < queries->size(); ++i) {
      const QueryInstance& q = (*queries)[i];
      const auto src = internal::AttachPoint(graph.venue(), q.ps);
      const auto dst = internal::AttachPoint(graph.venue(), q.pt);
      ASSERT_TRUE(src.ok() && dst.ok()) << c.name << " pair " << i;
      const internal::DoorSearchResult reference =
          internal::DoorDijkstra(graph, src->door_offsets, nullptr);
      const double expected =
          internal::BestCompletion(*src, *dst, q.ps.p, q.pt.p,
                                   [&](DoorId door) {
                                     return reference.Dist(
                                         static_cast<size_t>(door));
                                   })
              .first;
      EXPECT_EQ(q.s2t_m, expected) << c.name << " pair " << i;
    }
  }
}

// A NaN in either band field used to pass the range check, spend the
// whole source budget and report kResourceExhausted; an infinite band
// accepted unreachable pairs.
TEST(QueryGenTest, NonFiniteBandRejected) {
  MallConfig mall_config = MallConfig::Paper();
  mall_config.floors = 1;
  const auto mall = GenerateMall(mall_config);
  ASSERT_TRUE(mall.ok());
  const auto graph = ItGraph::Build(*mall);
  ASSERT_TRUE(graph.ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, double QueryGenConfig::*> fields[] = {
      {"s2t_distance", &QueryGenConfig::s2t_distance},
      {"tolerance", &QueryGenConfig::tolerance}};
  for (const auto& [name, field] : fields) {
    for (const double bad : {nan, inf}) {
      QueryGenConfig config;
      config.*field = bad;
      EXPECT_EQ(GenerateQueries(*graph, config).status().code(),
                StatusCode::kInvalidArgument)
          << name << " = " << bad;
    }
  }
}

VenueCatalog MakeTwoVenueCatalog() {
  VenueCatalog catalog;
  for (uint64_t seed : {3u, 4u}) {
    EXPECT_TRUE(catalog.AddVenue(MakeMall(seed), "itg-s").ok());
  }
  return catalog;
}

// A NaN Zipf exponent used to pass and send every request to venue 0.
TEST(WorkloadGenTest, NanZipfExponentRejected) {
  const VenueCatalog catalog = MakeTwoVenueCatalog();
  MultiVenueWorkloadConfig config;
  config.num_requests = 16;
  config.pairs_per_venue = 2;
  ASSERT_TRUE(GenerateMultiVenueWorkload(catalog, config).ok());
  config.zipf_exponent = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(GenerateMultiVenueWorkload(catalog, config).status().code(),
            StatusCode::kInvalidArgument);
}

// Each skew, fraction and hour field of the update stream, set to NaN,
// is rejected; the Zipf exponent, both fractions, max_open_hour and
// min_close_hour used to pass.
TEST(UpdateStreamGenTest, NanFieldsRejected) {
  const VenueCatalog catalog = MakeTwoVenueCatalog();
  ASSERT_TRUE(GenerateUpdateStream(catalog, UpdateStreamConfig()).ok());
  const std::pair<const char*, double UpdateStreamConfig::*> fields[] = {
      {"zipf_exponent", &UpdateStreamConfig::zipf_exponent},
      {"wrap_fraction", &UpdateStreamConfig::wrap_fraction},
      {"always_open_fraction", &UpdateStreamConfig::always_open_fraction},
      {"min_open_hour", &UpdateStreamConfig::min_open_hour},
      {"max_open_hour", &UpdateStreamConfig::max_open_hour},
      {"min_close_hour", &UpdateStreamConfig::min_close_hour},
      {"max_close_hour", &UpdateStreamConfig::max_close_hour}};
  for (const auto& [name, field] : fields) {
    UpdateStreamConfig config;
    config.*field = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(GenerateUpdateStream(catalog, config).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
}

TEST(ArrivalGenTest, OpenLoopArrivalsAreSortedSeededAndRateShaped) {
  ArrivalScheduleConfig config;
  config.offered_qps = 1000;
  config.seed = 11;
  const auto arrivals = GenerateOpenLoopArrivals(4096, config);
  ASSERT_TRUE(arrivals.ok());
  ASSERT_EQ(arrivals->size(), 4096u);

  double previous = 0;
  for (double t : *arrivals) {
    EXPECT_GE(t, previous);  // non-decreasing offsets
    previous = t;
  }
  // Mean inter-arrival ~ 1/qps: 4096 exponential gaps land well within
  // 20% of the offered rate.
  const double mean_gap = arrivals->back() / 4096.0;
  EXPECT_NEAR(mean_gap, 1.0 / config.offered_qps, 0.2 / config.offered_qps);

  // Same seed, same schedule; different seed, different schedule.
  const auto replay = GenerateOpenLoopArrivals(4096, config);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*arrivals, *replay);
  config.seed = 12;
  const auto other = GenerateOpenLoopArrivals(4096, config);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(*arrivals, *other);

  EXPECT_TRUE(GenerateOpenLoopArrivals(0, config)->empty());
  config.offered_qps = 0;
  EXPECT_EQ(GenerateOpenLoopArrivals(8, config).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GenerateOpenLoopArrivals(-1, ArrivalScheduleConfig())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(FamilyGenTest, GeneratesWellFormedRequestsForEveryFamily) {
  MallConfig mall_config = MallConfig::Paper();
  mall_config.floors = 1;
  const auto mall = GenerateMall(mall_config);
  ASSERT_TRUE(mall.ok());
  const auto venue = AssignTemporalVariations(*mall, AtiGenConfig());
  ASSERT_TRUE(venue.ok());
  const auto graph = ItGraph::Build(*venue);
  ASSERT_TRUE(graph.ok());

  FamilyGenConfig config;
  config.num_queries = 12;
  config.min_departure_seconds = 3600;
  config.max_departure_seconds = 7200;

  config.kind = QueryKind::kReachability;
  config.min_budget_seconds = 120;
  config.max_budget_seconds = 900;
  auto reach = GenerateFamilyQueries(*graph, config);
  ASSERT_TRUE(reach.ok());
  ASSERT_EQ(reach->size(), 12u);
  for (const QueryRequest& r : *reach) {
    EXPECT_EQ(r.kind, QueryKind::kReachability);
    EXPECT_GE(r.departure.seconds(), 3600);
    EXPECT_LE(r.departure.seconds(), 7200);
    EXPECT_GE(r.budget_seconds, 120);
    EXPECT_LE(r.budget_seconds, 900);
  }

  config.kind = QueryKind::kNearestFacility;
  config.min_k = 2;
  config.max_k = 4;
  config.num_facilities = 9;
  auto knn = GenerateFamilyQueries(*graph, config);
  ASSERT_TRUE(knn.ok());
  for (const QueryRequest& r : *knn) {
    EXPECT_GE(r.k, 2u);
    EXPECT_LE(r.k, 4u);
    ASSERT_EQ(r.facilities.size(), 9u);
    std::set<DoorId> distinct(r.facilities.begin(), r.facilities.end());
    EXPECT_EQ(distinct.size(), r.facilities.size()) << "duplicate facilities";
    for (DoorId d : r.facilities) {
      EXPECT_GE(d, 0);
      EXPECT_LT(static_cast<size_t>(d), graph->NumDoors());
    }
  }

  config.kind = QueryKind::kMultiStop;
  config.num_waypoints = 3;
  auto trips = GenerateFamilyQueries(*graph, config);
  ASSERT_TRUE(trips.ok());
  for (const QueryRequest& r : *trips) {
    EXPECT_EQ(r.waypoints.size(), 3u);
  }

  // Every generated request is routable as-is: no validation errors.
  const auto router = MakeRouter("itg-s", *graph);
  ASSERT_TRUE(router.ok());
  QueryContext context;
  for (const auto* batch : {&*reach, &*knn, &*trips}) {
    for (const QueryRequest& r : *batch) {
      EXPECT_TRUE((*router)->Route(r, &context).ok());
    }
  }
}

TEST(FamilyGenTest, RejectsBadConfigs) {
  MallConfig mall_config = MallConfig::Paper();
  mall_config.floors = 1;
  const auto mall = GenerateMall(mall_config);
  ASSERT_TRUE(mall.ok());
  const auto graph = ItGraph::Build(*mall);
  ASSERT_TRUE(graph.ok());

  FamilyGenConfig config;
  config.kind = QueryKind::kPointToPoint;  // wrong generator
  EXPECT_EQ(GenerateFamilyQueries(*graph, config).status().code(),
            StatusCode::kInvalidArgument);

  config.kind = QueryKind::kReachability;
  config.num_queries = 0;
  EXPECT_EQ(GenerateFamilyQueries(*graph, config).status().code(),
            StatusCode::kInvalidArgument);
  config.num_queries = 5;
  config.min_budget_seconds = 600;
  config.max_budget_seconds = 60;  // inverted range
  EXPECT_EQ(GenerateFamilyQueries(*graph, config).status().code(),
            StatusCode::kInvalidArgument);

  config = FamilyGenConfig();
  config.kind = QueryKind::kNearestFacility;
  config.min_k = 0;
  EXPECT_EQ(GenerateFamilyQueries(*graph, config).status().code(),
            StatusCode::kInvalidArgument);
  config.min_k = 1;
  config.num_facilities = 0;
  EXPECT_EQ(GenerateFamilyQueries(*graph, config).status().code(),
            StatusCode::kInvalidArgument);
  config.num_facilities = static_cast<int>(graph->NumDoors()) + 1;
  EXPECT_EQ(GenerateFamilyQueries(*graph, config).status().code(),
            StatusCode::kFailedPrecondition);

  config = FamilyGenConfig();
  config.kind = QueryKind::kMultiStop;
  config.num_waypoints = 0;
  EXPECT_EQ(GenerateFamilyQueries(*graph, config).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace itspq
