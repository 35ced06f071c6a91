// The cache-conscious search core's compiled views, pinned to the
// object-graph sources they replaced: CsrAdjacency vs the venue's
// doors and DoorsOf lists (and its weights vs door geometry), flat ATI
// rows vs AtiSet membership, generation-stamped scratch reuse vs fresh
// contexts, and epoch adjacency sharing.

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
#include "hall_venue.h"
#include "itgraph/checkpoints.h"
#include "itgraph/csr_adjacency.h"
#include "itgraph/itgraph.h"
#include "query/router.h"
#include "query/strategies.h"
#include "query/venue_catalog.h"
#include "update/versioned_graph.h"
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
// per partition its DoorsOf list in order, each listed door's position
// read from the positions aligned with the venue's lists.
TEST(SearchCoreTest, CsrAdjacencyMatchesVenueWalk) {
  const CoreWorld world = MakeWorld(11);
  const Venue& venue = *world.venue;
  const CsrAdjacency& adj = world.graph->adjacency();
  size_t sides = 0;
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const auto partition = static_cast<PartitionId>(p);
    EXPECT_EQ(venue.DoorListOffset(partition), sides) << "partition " << p;
    sides += venue.DoorsOf(partition).size();
  }
  ASSERT_EQ(sides, 2 * venue.NumDoors());
  ASSERT_EQ(adj.door_positions.size(), sides);
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const auto partition = static_cast<PartitionId>(p);
    const CsrAdjacency::DoorList doors = adj.DoorsOf(venue, partition);
    EXPECT_EQ(std::vector<DoorId>(doors.ids, doors.ids + doors.size),
              venue.DoorsOf(partition))
        << "partition " << p;
    for (size_t k = 0; k < doors.size; ++k) {
      const Point2d& pos = venue.door(doors.ids[k]).pos;
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
// partition, each partition's doors gathered from the doors' own sides.
void ExpectExtremesMatchBruteForce(const Venue& venue,
                                   const CsrAdjacency& adj) {
  std::vector<std::vector<DoorId>> members(venue.NumPartitions());
  for (size_t d = 0; d < venue.NumDoors(); ++d) {
    const auto door = static_cast<DoorId>(d);
    for (PartitionId p : venue.door(door).partitions) {
      std::vector<DoorId>& list = members[static_cast<size_t>(p)];
      if (list.empty() || list.back() != door) list.push_back(door);
    }
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0;
  for (const std::vector<DoorId>& list : members) {
    for (size_t a = 0; a < list.size(); ++a) {
      for (size_t b = a + 1; b < list.size(); ++b) {
        const double w = EuclideanDistance(venue.door(list[a]).pos,
                                           venue.door(list[b]).pos);
        lo = std::min(lo, w);
        hi = std::max(hi, w);
      }
    }
  }
  EXPECT_EQ(Bits(adj.min_edge_weight), Bits(lo));
  EXPECT_EQ(Bits(adj.max_edge_weight), Bits(hi));
}

// The generated fleet shapes the benchmark serves, per seed: 384
// interactive malls of one to three floors and two to four shop rows,
// and 16 paper-size malls of five floors of four shop rows.
std::vector<std::vector<Venue>> SeededFleets(uint64_t seed) {
  FleetConfig interactive;
  interactive.seed = seed;
  interactive.num_venues = 384;
  interactive.min_floors = 1;
  interactive.max_floors = 3;
  FleetConfig paper = interactive;
  paper.num_venues = 16;
  paper.min_floors = paper.max_floors = 5;
  paper.min_shop_rows = paper.max_shop_rows = 4;
  std::vector<std::vector<Venue>> fleets;
  for (const FleetConfig& config : {interactive, paper}) {
    fleets.push_back(
        ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet"));
  }
  return fleets;
}

TEST(SearchCoreTest, WeightExtremesMatchBruteForce) {
  const std::vector<Venue> fleet = SmallFleet();
  for (const Venue& venue : fleet) {
    const ItGraph graph = ValueOrDie(ItGraph::Build(venue), "ItGraph::Build");
    ExpectExtremesMatchBruteForce(venue, graph.adjacency());
    EXPECT_TRUE(graph.adjacency().BucketEligible());
  }
  for (uint64_t seed : {1, 2}) {
    for (const std::vector<Venue>& seeded : SeededFleets(seed)) {
      for (size_t v = 0; v < seeded.size(); ++v) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " venue " +
                     std::to_string(v) + " of " +
                     std::to_string(seeded.size()));
        ExpectExtremesMatchBruteForce(seeded[v],
                                      CsrAdjacency::Compile(seeded[v]));
      }
    }
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

/// A venue of one partition holding `walls` doors, each leading to a
/// room of its own (which holds that door alone).
Venue MakeOneHallVenue(const std::vector<Point2d>& doors) {
  Venue::Builder builder;
  const PartitionId hall = builder.AddPartition(Rect{0, 0, 100, 100}, 0);
  for (const Point2d& pos : doors) {
    const PartitionId room = builder.AddPartition(Rect{0, 0, 1, 1}, 0);
    builder.AddDoor(pos, 0, hall, room);
  }
  return ValueOrDie(std::move(builder).Build(), "Venue::Builder::Build");
}

void ExpectExtremes(const Venue& venue, double min, double max) {
  const CsrAdjacency adj = CsrAdjacency::Compile(venue);
  ExpectExtremesMatchBruteForce(venue, adj);
  EXPECT_EQ(Bits(adj.min_edge_weight), Bits(min));
  EXPECT_EQ(Bits(adj.max_edge_weight), Bits(max));
}

// The x-ordered sweep at its edge cases, bitwise against brute force
// and against weights worked out by hand.
TEST(SearchCoreTest, WeightExtremesOfHandBuiltPartitions) {
  const double inf = std::numeric_limits<double>::infinity();
  {
    SCOPED_TRACE("colinear doors on one horizontal wall");
    ExpectExtremes(MakeOneHallVenue({{3, 10}, {10, 10}, {10.5, 10},
                                     {40, 10}, {97, 10}}),
                   0.5, 94);
  }
  {
    SCOPED_TRACE("colinear doors on one vertical wall, all at equal x");
    ExpectExtremes(MakeOneHallVenue({{0, 80}, {0, 5}, {0, 12.25}, {0, 12}}),
                   0.25, 75);
  }
  {
    SCOPED_TRACE("doors at equal x on both walls");
    ExpectExtremes(MakeOneHallVenue({{5, 0}, {45, 10}, {20, 10}, {5, 10},
                                     {45, 0}, {20, 0}}),
                   10, EuclideanDistance({5, 0}, {45, 10}));
  }
  {
    // Seeded with the x-extreme pair (0, 5)-(10, 10), the sweep must
    // still reach the wider (1, 0)-(10, 10) pair from its second row.
    SCOPED_TRACE("the widest pair is not the x-extreme pair");
    ExpectExtremes(MakeOneHallVenue({{0, 5}, {1, 0}, {2, 5}, {10, 10}}), 2,
                   EuclideanDistance({1, 0}, {10, 10}));
  }
  {
    SCOPED_TRACE("coincident doors");
    const Venue venue = MakeOneHallVenue({{7, 3}, {30, 3}, {7, 3}, {60, 9}});
    ExpectExtremes(venue, 0, EuclideanDistance({7, 3}, {60, 9}));
    EXPECT_FALSE(CsrAdjacency::Compile(venue).BucketEligible());
  }
  {
    SCOPED_TRACE("single-door partitions only");
    Venue::Builder builder;
    for (int pair = 0; pair < 3; ++pair) {
      const double x = 20.0 * pair;
      const PartitionId a = builder.AddPartition(Rect{x, 0, x + 10, 10}, 0);
      const PartitionId b =
          builder.AddPartition(Rect{x + 10, 0, x + 20, 10}, 0);
      builder.AddDoor(Point2d{x + 10, 5}, 0, a, b);
    }
    const Venue venue =
        ValueOrDie(std::move(builder).Build(), "Venue::Builder::Build");
    ExpectExtremes(venue, inf, 0);
    EXPECT_FALSE(CsrAdjacency::Compile(venue).BucketEligible());
  }
}

// The pair-sort boundary ledger BuildBoundaryLedger replaced: every
// (time, door) contribution of every door, sorted, grouped by time.
void PairSortLedger(const ItGraph& graph, std::vector<double>* times,
                    std::vector<std::vector<DoorId>>* doors) {
  std::vector<std::pair<double, DoorId>> contributions;
  for (size_t d = 0; d < graph.NumDoors(); ++d) {
    for (double t : graph.Ati(static_cast<DoorId>(d)).InteriorBoundaries()) {
      contributions.emplace_back(t, static_cast<DoorId>(d));
    }
  }
  std::sort(contributions.begin(), contributions.end());
  times->clear();
  doors->clear();
  for (const auto& [t, d] : contributions) {
    if (times->empty() || times->back() != t) {
      times->push_back(t);
      doors->emplace_back();
    }
    doors->back().push_back(d);
  }
}

// BoundaryLedger::Build in the list shape the pair sort produces:
// times[b], and flip list b as a vector.
void BuildBoundaryLedger(const ItGraph& graph, std::vector<double>* times,
                         std::vector<std::vector<DoorId>>* doors) {
  const BoundaryLedger ledger = BoundaryLedger::Build(graph);
  *times = ledger.checkpoints.times();
  ASSERT_EQ(ledger.flips.NumBoundaries(), times->size());
  doors->clear();
  for (size_t b = 0; b < ledger.flips.NumBoundaries(); ++b) {
    doors->emplace_back(ledger.flips.FlipsBegin(b), ledger.flips.FlipsEnd(b));
  }
}

void ExpectLedgerMatchesPairSort(const ItGraph& graph) {
  std::vector<double> times, want_times;
  std::vector<std::vector<DoorId>> doors, want_doors;
  BuildBoundaryLedger(graph, &times, &doors);
  PairSortLedger(graph, &want_times, &want_doors);
  EXPECT_EQ(times, want_times);
  EXPECT_EQ(doors, want_doors);
  EXPECT_EQ(CheckpointSet::FromGraph(graph).times(), want_times);
}

/// `venue` with door d's intervals replaced by atis[d].
Venue WithAtis(const Venue& venue,
               const std::vector<std::vector<TimeInterval>>& atis) {
  Venue::Builder builder = Venue::Builder::FromVenue(venue);
  for (size_t d = 0; d < atis.size(); ++d) {
    EXPECT_TRUE(builder.SetDoorAti(static_cast<DoorId>(d), atis[d]).ok());
  }
  return ValueOrDie(std::move(builder).Build(), "Venue::Builder::Build");
}

// Hand-set ATIs: a few shared times arriving out of order (fewer than
// the distinct-time search ever folds before its last pass), and many
// distinct times arriving in descending order, folded several times.
TEST(SearchCoreTest, BoundaryLedgerOfHandBuiltAtis) {
  const Venue few = WithAtis(
      MakeHallVenue(),
      {{MakeInterval(8, 0, 12, 0), MakeInterval(13, 0, 18, 0)},
       {},
       {MakeInterval(22, 0, 6, 0)},
       {MakeInterval(9, 0, 17, 0)},
       {MakeInterval(9, 0, 17, 0)}});
  const ItGraph few_graph = ValueOrDie(ItGraph::Build(few), "ItGraph::Build");
  std::vector<double> times;
  std::vector<std::vector<DoorId>> doors;
  BuildBoundaryLedger(few_graph, &times, &doors);
  const double h = 3600;
  EXPECT_EQ(times, (std::vector<double>{6 * h, 8 * h, 9 * h, 12 * h, 13 * h,
                                        17 * h, 18 * h, 22 * h}));
  EXPECT_EQ(doors, (std::vector<std::vector<DoorId>>{
                       {2}, {0}, {3, 4}, {0}, {0}, {3, 4}, {0}, {2}}));
  ExpectLedgerMatchesPairSort(few_graph);

  std::vector<Point2d> positions;
  std::vector<std::vector<TimeInterval>> atis;
  for (int d = 0; d < 40; ++d) {
    positions.push_back({2.0 * d, 0});
    const double open = 80000 - 1000.0 * d;
    atis.push_back({{open, open + 60}});
  }
  const Venue many = WithAtis(MakeOneHallVenue(positions), atis);
  const ItGraph many_graph =
      ValueOrDie(ItGraph::Build(many), "ItGraph::Build");
  BuildBoundaryLedger(many_graph, &times, &doors);
  EXPECT_EQ(times.size(), 80u);
  ExpectLedgerMatchesPairSort(many_graph);
}

TEST(SearchCoreTest, BoundaryLedgerMatchesPairSortOverSeededFleets) {
  for (uint64_t seed : {1, 2}) {
    for (const std::vector<Venue>& seeded : SeededFleets(seed)) {
      for (size_t v = 0; v < seeded.size(); ++v) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " venue " +
                     std::to_string(v) + " of " +
                     std::to_string(seeded.size()));
        ExpectLedgerMatchesPairSort(
            ValueOrDie(ItGraph::Build(seeded[v]), "ItGraph::Build"));
      }
    }
  }
}

/// The graph of a one-hall venue whose door d is open over atis[d].
ItGraph HallGraphWithAtis(const std::vector<std::vector<TimeInterval>>& atis) {
  std::vector<Point2d> positions;
  for (size_t d = 0; d < atis.size(); ++d) {
    positions.push_back({2.0 * static_cast<double>(d % 50),
                         2.0 * static_cast<double>(d / 50)});
  }
  return ValueOrDie(ItGraph::Build(WithAtis(MakeOneHallVenue(positions), atis)),
                    "ItGraph::Build");
}

/// `count` ascending times in (0, 86400) whose bit patterns share one
/// home slot of the ledger table. The hash reads every bit, so a shared
/// slot is the most any two distinct times can agree in.
std::vector<double> CollidingTimes(size_t count) {
  const size_t home = LedgerHomeSlot(3600.0);
  std::vector<double> times;
  for (double t = 3600; times.size() < count; t += 0.25) {
    if (LedgerHomeSlot(t) == home) times.push_back(t);
  }
  return times;
}

/// One door per consecutive pair of the ascending `times`, open from the
/// first to the second; the last pair goes to door 0, so the doors file
/// their times in descending order.
std::vector<std::vector<TimeInterval>> PairedAtis(
    const std::vector<double>& times) {
  std::vector<std::vector<TimeInterval>> atis;
  for (size_t i = times.size(); i >= 2; i -= 2) {
    atis.push_back({{times[i - 2], times[i - 1]}});
  }
  return atis;
}

// Rows built against BoundaryLedger::Build's table: more distinct times
// than it holds, times that all probe from one slot (within and past the
// longest probe), and adjacent doubles, none filed in time order. Each
// matches the pair sort.
TEST(SearchCoreTest, BoundaryLedgerOfHostileTimes) {
  {
    SCOPED_TRACE("1,200 distinct times");
    std::vector<std::vector<TimeInterval>> atis;
    for (int d = 0; d < 600; ++d) {
      const double open = 1000 + 70.5 * (7 * d % 600);
      atis.push_back({{open, open + 60}});
    }
    const ItGraph graph = HallGraphWithAtis(atis);
    EXPECT_EQ(CheckpointSet::FromGraph(graph).NumCheckpoints(), 1200u);
    ExpectLedgerMatchesPairSort(graph);
  }
  for (const size_t count : {kLedgerMaxProbe, 4 * kLedgerMaxProbe}) {
    SCOPED_TRACE(std::to_string(count) + " times sharing one home slot");
    const std::vector<double> times = CollidingTimes(count);
    const ItGraph graph = HallGraphWithAtis(PairedAtis(times));
    EXPECT_EQ(CheckpointSet::FromGraph(graph).times(), times);
    ExpectLedgerMatchesPairSort(graph);
  }
  {
    SCOPED_TRACE("adjacent doubles");
    std::vector<std::vector<TimeInterval>> atis;
    double open = 12 * 3600.0;
    double close = 13 * 3600.0;
    for (int d = 0; d < 24; ++d) {
      atis.push_back({{open, close}});
      open = std::nextafter(open, kSecondsPerDay);
      if (d % 2 == 1) close = std::nextafter(close, 0.0);
    }
    const ItGraph graph = HallGraphWithAtis(atis);
    EXPECT_EQ(CheckpointSet::FromGraph(graph).NumCheckpoints(), 36u);
    ExpectLedgerMatchesPairSort(graph);
  }
}

// The update plane rebuilds an epoch's ledger from the new rows; after
// every update of a seeded stream, the published checkpoints and flip
// lists equal the ledger compiled from scratch for the new graph.
TEST(SearchCoreTest, IncrementalLedgerMatchesRebuildAcrossAnUpdateStream) {
  std::vector<std::vector<Venue>> fleets = SeededFleets(1);
  VenueCatalog catalog;
  for (Venue& venue : fleets[1]) {
    ValueOrDie(catalog.AddVenue(std::move(venue), "itg-s"), "AddVenue");
  }
  UpdateStreamConfig config;
  config.num_updates = 160;
  config.seed = 29;
  config.wrap_fraction = 0.25;
  config.always_open_fraction = 0.25;
  for (const TimedAtiUpdate& timed : ValueOrDie(
           GenerateUpdateStream(catalog, config), "GenerateUpdateStream")) {
    const AtiUpdate& update = timed.update;
    SCOPED_TRACE("venue " + std::to_string(update.venue_id) + " door " +
                 std::to_string(update.door_id));
    ValueOrDie(catalog.ApplyAtiUpdate(update), "ApplyAtiUpdate");
    const std::shared_ptr<const VersionedGraph> world =
        catalog.world(update.venue_id);
    ExpectLedgerMatchesPairSort(world->graph());
    std::vector<double> times;
    std::vector<std::vector<DoorId>> doors;
    BuildBoundaryLedger(world->graph(), &times, &doors);
    EXPECT_EQ(world->checkpoints().times(), times);
    const BoundaryFlipIndex& flips = world->flip_index();
    ASSERT_EQ(flips.NumBoundaries(), doors.size());
    for (size_t b = 0; b < doors.size(); ++b) {
      EXPECT_EQ(std::vector<DoorId>(flips.FlipsBegin(b), flips.FlipsEnd(b)),
                doors[b])
          << "boundary " << b;
    }
  }
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
