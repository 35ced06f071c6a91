// The cache-conscious search core's compiled views, pinned to the
// object-graph sources they replaced: CsrAdjacency vs the venue's
// doors and DoorsOf lists (and its weights vs door geometry), flat ATI
// rows vs AtiSet membership,
// DoorMask's word-wise scan helpers vs the per-bit loop, generation-
// stamped scratch reuse vs fresh contexts, and epoch adjacency sharing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/query_gen.h"
#include "gen/workload_gen.h"
#include "gen/venue_gen.h"
#include "itgraph/csr_adjacency.h"
#include "itgraph/door_mask.h"
#include "itgraph/itgraph.h"
#include "query/router.h"
#include "query/strategies.h"
#include "venue/venue.h"

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

// Bit-identical path comparison: same length, same door sequence, same
// cumulative distances and projected arrivals.
void ExpectSamePath(const Path& a, const Path& b, const std::string& label) {
  EXPECT_EQ(a.length_m(), b.length_m()) << label;
  ASSERT_EQ(a.steps().size(), b.steps().size()) << label;
  for (size_t i = 0; i < a.steps().size(); ++i) {
    EXPECT_EQ(a.steps()[i].door, b.steps()[i].door) << label << " step " << i;
    EXPECT_EQ(a.steps()[i].cumulative_m, b.steps()[i].cumulative_m)
        << label << " step " << i;
    EXPECT_EQ(a.steps()[i].arrival_seconds, b.steps()[i].arrival_seconds)
        << label << " step " << i;
  }
}

struct CoreWorld {
  std::unique_ptr<Venue> venue;
  std::unique_ptr<ItGraph> graph;
  std::vector<QueryInstance> queries;
};

CoreWorld MakeWorld(uint64_t seed) {
  MallConfig mall_config = MallConfig::Paper();
  mall_config.floors = 1;
  mall_config.shop_rows = 3;
  mall_config.shops_per_row = 16;
  mall_config.seed = seed;
  Venue mall = ValueOrDie(GenerateMall(mall_config), "GenerateMall");

  AtiGenConfig ati_config;
  ati_config.checkpoint_count = 5;
  ati_config.seed = seed + 1;
  CoreWorld world;
  world.venue = std::make_unique<Venue>(
      ValueOrDie(AssignTemporalVariations(mall, ati_config, nullptr),
                 "AssignTemporalVariations"));
  world.graph = std::make_unique<ItGraph>(
      ValueOrDie(ItGraph::Build(*world.venue), "ItGraph::Build"));

  QueryGenConfig query_config;
  query_config.s2t_distance = 500;
  query_config.tolerance = 250;
  query_config.num_pairs = 5;
  query_config.seed = seed + 2;
  world.queries = ValueOrDie(GenerateQueries(*world.graph, query_config),
                             "GenerateQueries");
  return world;
}

// The adjacency is exactly the venue's implicit door graph, flattened:
// per door its two partition sides, per partition its DoorsOf list in
// order with each listed door's position.
TEST(SearchCoreTest, CsrAdjacencyMatchesVenueWalk) {
  const CoreWorld world = MakeWorld(11);
  const Venue& venue = *world.venue;
  const CsrAdjacency& adj = world.graph->adjacency();
  const size_t n = venue.NumDoors();
  ASSERT_EQ(adj.num_doors, n);
  ASSERT_EQ(adj.seg_partition.size(), 2 * n);
  ASSERT_EQ(adj.door_offsets.size(), venue.NumPartitions() + 1);
  ASSERT_EQ(adj.door_positions.size(), adj.door_ids.size());
  for (size_t d = 0; d < n; ++d) {
    const Door& door = venue.door(static_cast<DoorId>(d));
    EXPECT_EQ(adj.seg_partition[2 * d], door.partitions[0]);
    EXPECT_EQ(adj.seg_partition[2 * d + 1], door.partitions[1]);
  }
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const CsrAdjacency::DoorList doors = adj.DoorsOf(p);
    EXPECT_EQ(std::vector<DoorId>(doors.ids, doors.ids + doors.size),
              venue.DoorsOf(static_cast<PartitionId>(p)))
        << "partition " << p;
    for (size_t k = 0; k < doors.size; ++k) {
      const Point2d& pos = venue.door(static_cast<DoorId>(doors.ids[k])).pos;
      EXPECT_EQ(doors.positions[k].x, pos.x) << "partition " << p;
      EXPECT_EQ(doors.positions[k].y, pos.y) << "partition " << p;
    }
  }
}

std::vector<Venue> SmallFleet() {
  FleetConfig config;
  config.num_venues = 6;
  config.seed = 3;
  config.max_floors = 2;
  return ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// A search computes an edge's weight from whichever end it expands, so
// the weight must be the same bits either way round: a - b == -(b - a)
// exactly, and both square to the same value.
TEST(SearchCoreTest, EdgeWeightIsBitwiseSymmetricOverAFleet) {
  for (const Venue& venue : SmallFleet()) {
    size_t pairs = 0, asymmetric = 0;
    for (size_t a = 0; a < venue.NumDoors(); ++a) {
      for (size_t b = 0; b < venue.NumDoors(); ++b) {
        const Point2d& pa = venue.door(static_cast<DoorId>(a)).pos;
        const Point2d& pb = venue.door(static_cast<DoorId>(b)).pos;
        ++pairs;
        if (Bits(EuclideanDistance(pa, pb)) != Bits(EuclideanDistance(pb, pa))) {
          ++asymmetric;
        }
      }
    }
    EXPECT_GT(pairs, 0u);
    EXPECT_EQ(asymmetric, 0u);
  }
}

// The compiled weight extremes (squared distances, one sqrt) equal a
// brute-force pass over every pair of distinct doors sharing a
// partition.
void ExpectExtremesMatchBruteForce(const Venue& venue,
                                   const CsrAdjacency& adj) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0;
  for (size_t a = 0; a < venue.NumDoors(); ++a) {
    const Door& da = venue.door(static_cast<DoorId>(a));
    for (size_t b = 0; b < venue.NumDoors(); ++b) {
      const Door& db = venue.door(static_cast<DoorId>(b));
      const bool shared =
          std::any_of(da.partitions.begin(), da.partitions.end(),
                      [&](PartitionId p) {
                        return p == db.partitions[0] || p == db.partitions[1];
                      });
      if (a == b || !shared) continue;
      const double w = EuclideanDistance(da.pos, db.pos);
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
  }
  EXPECT_EQ(Bits(adj.min_edge_weight), Bits(lo));
  EXPECT_EQ(Bits(adj.max_edge_weight), Bits(hi));
}

TEST(SearchCoreTest, WeightExtremesMatchBruteForce) {
  const std::vector<Venue> fleet = SmallFleet();
  for (const Venue& venue : fleet) {
    const ItGraph graph = ValueOrDie(ItGraph::Build(venue), "ItGraph::Build");
    ExpectExtremesMatchBruteForce(venue, graph.adjacency());
    EXPECT_TRUE(graph.adjacency().BucketEligible());
  }

  // A twin of door 0 at the same position: a zero-weight edge, so the
  // graph must fall back to the heap.
  const Door& door = fleet[0].door(DoorId{0});
  Venue::Builder builder = Venue::Builder::FromVenue(fleet[0]);
  builder.AddDoor(door.pos, door.floor, door.partitions[0],
                  door.partitions[1]);
  const Venue twinned =
      ValueOrDie(std::move(builder).Build(), "Venue::Builder::Build");
  const ItGraph graph = ValueOrDie(ItGraph::Build(twinned), "ItGraph::Build");
  ExpectExtremesMatchBruteForce(twinned, graph.adjacency());
  EXPECT_EQ(graph.adjacency().min_edge_weight, 0.0);
  EXPECT_FALSE(graph.adjacency().BucketEligible());
}

// The membership reference for the flat rows: a binary search for the
// last interval starting at or before the wrapped time, independent of
// AtiRow::ContainsTimeOfDay's forward scan.
bool ContainsByBinarySearch(const AtiRow& ati, double tod) {
  if (ati.IsAlwaysOpen()) return true;
  const double t = WrapTimeOfDay(tod);
  size_t lo = 0, hi = ati.starts().size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (ati.starts()[mid] <= t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo > 0 && t < ati.ends()[lo - 1];
}

// The flat rows answer exactly as a binary search over the AtiSets
// normalised from the same intervals, including boundaries, empty
// (always-open) rows, and wrapped times.
TEST(SearchCoreTest, FlatAtiRowsMatchAtiSets) {
  const CoreWorld world = MakeWorld(23);
  const ItGraph& graph = *world.graph;
  Rng rng(5);
  for (size_t d = 0; d < graph.NumDoors(); ++d) {
    const DoorId door = static_cast<DoorId>(d);
    const Span<TimeInterval> intervals = world.venue->DoorAti(door);
    const AtiSet set = ValueOrDie(
        AtiSet::Create({intervals.begin(), intervals.end()}), "AtiSet");
    const AtiRow ati = set.row();
    for (int probe = 0; probe < 64; ++probe) {
      const double t = rng.UniformDouble(0, kSecondsPerDay);
      EXPECT_EQ(graph.Ati(door).ContainsTimeOfDay(t),
                ContainsByBinarySearch(ati, t))
          << "door " << d << " t " << t;
    }
    // Interval boundaries: start is inside a [start, end) interval,
    // end is outside; the exactly-at-checkpoint cases.
    for (size_t i = 0; i < ati.starts().size(); ++i) {
      for (double t : {ati.starts()[i], ati.ends()[i]}) {
        if (t >= kSecondsPerDay) continue;
        EXPECT_EQ(graph.Ati(door).ContainsTimeOfDay(t),
                  ContainsByBinarySearch(ati, t))
            << "door " << d << " boundary " << t;
      }
    }
    // Projected arrivals past midnight arrive unwrapped.
    EXPECT_EQ(graph.Ati(door).ContainsTimeOfDay(kSecondsPerDay + 3600),
              ContainsByBinarySearch(ati,
                                     WrapTimeOfDay(kSecondsPerDay + 3600)));
  }
}

TEST(SearchCoreTest, DoorMaskScanHelpersMatchPerBitLoop) {
  Rng rng(77);
  for (size_t n : {1u, 63u, 64u, 65u, 200u, 515u}) {
    DoorMask mask(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng.UniformIndex(3) == 0) mask.Set(static_cast<DoorId>(i));
    }

    // ForEachSetAmong over a random (sorted, CSR-like) id list.
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < n; ++i) {
      if (rng.UniformIndex(2) == 0) ids.push_back(static_cast<uint32_t>(i));
    }
    std::vector<size_t> got;
    mask.ForEachSetAmong(ids.data(), ids.size(),
                         [&](size_t k) { got.push_back(k); });
    std::vector<size_t> want;
    for (size_t k = 0; k < ids.size(); ++k) {
      if (mask.Test(static_cast<DoorId>(ids[k]))) want.push_back(k);
    }
    EXPECT_EQ(got, want) << "n=" << n;

    // ForEachSetInRange across word-boundary-straddling windows.
    for (int probe = 0; probe < 16; ++probe) {
      const size_t lo = rng.UniformIndex(n + 1);
      const size_t hi = lo + rng.UniformIndex(n + 1 - lo);
      std::vector<DoorId> got_range;
      mask.ForEachSetInRange(lo, hi,
                             [&](DoorId d) { got_range.push_back(d); });
      std::vector<DoorId> want_range;
      for (size_t i = lo; i < hi; ++i) {
        if (mask.Test(static_cast<DoorId>(i))) {
          want_range.push_back(static_cast<DoorId>(i));
        }
      }
      EXPECT_EQ(got_range, want_range) << "n=" << n << " [" << lo << ", "
                                       << hi << ")";
    }
  }
}

// A generously sampled mall has coincident doors nowhere, so the
// compiled adjacency qualifies for the bucket frontier; the eligibility
// predicate must also reject the degenerate cases.
TEST(SearchCoreTest, BucketEligibilityGuardsDegenerateWeights) {
  const CoreWorld world = MakeWorld(31);
  const CsrAdjacency& adj = world.graph->adjacency();
  EXPECT_GT(adj.min_edge_weight, 0);
  EXPECT_TRUE(adj.BucketEligible());

  CsrAdjacency zero = adj;
  zero.min_edge_weight = 0;  // a zero-weight edge breaks Dial exactness
  EXPECT_FALSE(zero.BucketEligible());

  CsrAdjacency wide = adj;
  wide.min_edge_weight = 1.0;
  wide.max_edge_weight = 2.0 * CsrAdjacency::kMaxBucketSpan;
  EXPECT_FALSE(wide.BucketEligible());  // ring would be unbounded

  CsrAdjacency empty;
  EXPECT_FALSE(empty.BucketEligible());  // min stays +inf with no edges
}

// Generation-stamped scratch: a context reused across many queries (the
// whole point of the stamping) answers bit-identically to a fresh
// context per query, for every strategy, across interleaved venues of
// different sizes (forcing the resize/stamp-reset paths).
TEST(SearchCoreTest, ReusedContextIsBitIdenticalToFreshContexts) {
  const CoreWorld small = MakeWorld(41);
  const CoreWorld big = [] {
    CoreWorld big;
    MallConfig mall_config = MallConfig::Paper();
    mall_config.floors = 2;
    mall_config.shop_rows = 3;
    mall_config.shops_per_row = 16;
    mall_config.seed = 43;
    Venue mall = ValueOrDie(GenerateMall(mall_config), "GenerateMall");
    AtiGenConfig ati_config;
    ati_config.checkpoint_count = 5;
    ati_config.seed = 44;
    big.venue = std::make_unique<Venue>(
        ValueOrDie(AssignTemporalVariations(mall, ati_config, nullptr),
                   "AssignTemporalVariations"));
    big.graph = std::make_unique<ItGraph>(
        ValueOrDie(ItGraph::Build(*big.venue), "ItGraph::Build"));
    QueryGenConfig query_config;
    query_config.s2t_distance = 500;
    query_config.tolerance = 250;
    query_config.num_pairs = 5;
    query_config.seed = 45;
    big.queries = ValueOrDie(GenerateQueries(*big.graph, query_config),
                             "GenerateQueries");
    return big;
  }();
  ASSERT_NE(small.graph->NumDoors(), big.graph->NumDoors());

  for (TvCheck check : kTvChecks) {
    const std::string strategy = TvCheckName(check);
    std::unique_ptr<Router> small_router =
        ValueOrDie(MakeRouter(strategy, *small.graph), "MakeRouter");
    std::unique_ptr<Router> big_router =
        ValueOrDie(MakeRouter(strategy, *big.graph), "MakeRouter");

    QueryContext reused;
    for (int round = 0; round < 3; ++round) {
      for (const CoreWorld* world : {&small, &big}) {
        const Router& router =
            world == &small ? *small_router : *big_router;
        for (const QueryInstance& q : world->queries) {
          for (int hour : {9, 13, 20}) {
            const QueryRequest request{q.ps, q.pt, Instant::FromHMS(hour),
                                       QueryOptions()};
            QueryContext fresh;
            const QueryResult a =
                ValueOrDie(router.Route(request, &reused), "Route");
            const QueryResult b =
                ValueOrDie(router.Route(request, &fresh), "Route");
            ASSERT_EQ(a.found, b.found)
                << strategy << " h" << hour << " round " << round;
            if (!a.found) continue;
            ExpectSamePath(a.path, b.path,
                           strategy + " h" + std::to_string(hour));
          }
        }
      }
    }
  }
}

// One context reused across queries with the snapshot cache on answers
// exactly as a fresh context per query: the per-interval pins a query
// takes are released when it returns, so nothing carries over.
TEST(SearchCoreTest, ReusedContextWithSnapshotCacheMatchesSingleQueries) {
  const CoreWorld world = MakeWorld(53);
  for (const std::string& strategy : {std::string("itg-a+"),
                                      std::string("itg-a"),
                                      std::string("itg-s")}) {
    std::unique_ptr<Router> router =
        ValueOrDie(MakeRouter(strategy, *world.graph), "MakeRouter");
    std::vector<QueryRequest> requests;
    QueryOptions options;
    options.use_snapshot_cache = true;
    for (const QueryInstance& q : world.queries) {
      for (int hour : {8, 12, 18, 22}) {
        requests.push_back(
            QueryRequest{q.ps, q.pt, Instant::FromHMS(hour), options});
      }
    }
    QueryContext shared;
    for (size_t i = 0; i < requests.size(); ++i) {
      const QueryResult reused =
          ValueOrDie(router->Route(requests[i], &shared), "Route");
      const QueryResult single =
          ValueOrDie(router->Route(requests[i], nullptr), "Route");
      ASSERT_EQ(reused.found, single.found) << strategy << " #" << i;
      if (!single.found) continue;
      ExpectSamePath(reused.path, single.path,
                     strategy + " #" + std::to_string(i));
    }
  }
}

// BuildFrom epochs alias their predecessor's compiled adjacency — ATI
// edits never change geometry, so recompiling (or copying) the CSR per
// epoch would be pure waste.
TEST(SearchCoreTest, BuildFromSharesTheAdjacencyHandle) {
  const CoreWorld world = MakeWorld(61);
  const DoorId changed = 3;
  Venue::Builder builder = Venue::Builder::FromVenue(*world.venue);
  ASSERT_TRUE(
      builder.SetDoorAti(changed, {MakeInterval(9, 0, 17, 0)}).ok());
  const Venue edited = ValueOrDie(std::move(builder).Build(), "Build");
  const ItGraph next = ValueOrDie(
      ItGraph::BuildFrom(*world.graph, edited, changed), "BuildFrom");
  EXPECT_EQ(next.adjacency_handle().get(),
            world.graph->adjacency_handle().get());
  EXPECT_TRUE(next.Ati(changed).ContainsTimeOfDay(10 * 3600.0));
  EXPECT_FALSE(next.Ati(changed).ContainsTimeOfDay(18 * 3600.0));
}

}  // namespace
}  // namespace itspq
