// The flat venue world against brute force, over a seeded fleet: point
// location through the per-floor cell grid answers exactly as a scan of
// every partition, at any scale of the venue's coordinates, while the
// grid's size follows its partition count, not its area in metres; and
// every door's compiled ATI row is exactly what
// AtiSet::Create makes of that door's intervals — at epoch 0 and after
// each update of a seeded stream, whose splices include the first and
// the last door.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "gen/workload_gen.h"
#include "itgraph/ati.h"
#include "itgraph/itgraph.h"
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

std::vector<Venue> MakeFleet() {
  FleetConfig config;
  config.num_venues = 4;
  config.seed = 19;
  config.min_floors = 1;
  config.max_floors = 3;
  config.min_shop_rows = 2;
  config.max_shop_rows = 4;
  return ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
}

std::vector<PartitionId> BruteForceLocate(const Venue& venue,
                                          const IndoorPoint& point) {
  std::vector<PartitionId> out;
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const Partition& partition = venue.partition(static_cast<PartitionId>(p));
    if (partition.floor == point.floor && partition.rect.Contains(point.p)) {
      out.push_back(static_cast<PartitionId>(p));
    }
  }
  return out;
}

// Every door position, every partition corner, and a 32 m lattice over
// each floor's bounding box from its corner.
std::vector<IndoorPoint> ProbePoints(const Venue& venue) {
  std::vector<IndoorPoint> points;
  for (size_t d = 0; d < venue.NumDoors(); ++d) {
    const Door& door = venue.door(static_cast<DoorId>(d));
    points.push_back({door.pos, door.floor});
  }
  int min_floor = 0, max_floor = 0;
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const Partition& partition = venue.partition(static_cast<PartitionId>(p));
    const Rect& r = partition.rect;
    for (const Point2d& corner : {Point2d{r.min_x, r.min_y},
                                  Point2d{r.max_x, r.min_y},
                                  Point2d{r.min_x, r.max_y},
                                  Point2d{r.max_x, r.max_y}}) {
      points.push_back({corner, partition.floor});
    }
    min_floor = p == 0 ? partition.floor : std::min(min_floor, partition.floor);
    max_floor = p == 0 ? partition.floor : std::max(max_floor, partition.floor);
  }
  for (int floor = min_floor; floor <= max_floor; ++floor) {
    Rect box{0, 0, 0, 0};
    bool any = false;
    for (size_t p = 0; p < venue.NumPartitions(); ++p) {
      const Partition& partition =
          venue.partition(static_cast<PartitionId>(p));
      if (partition.floor != floor) continue;
      const Rect& r = partition.rect;
      box = any ? Rect{std::min(box.min_x, r.min_x),
                       std::min(box.min_y, r.min_y),
                       std::max(box.max_x, r.max_x),
                       std::max(box.max_y, r.max_y)}
                : r;
      any = true;
    }
    if (!any) continue;
    for (double x = box.min_x; x <= box.max_x + 32; x += 32) {
      for (double y = box.min_y; y <= box.max_y + 32; y += 32) {
        points.push_back({Point2d{x, y}, floor});
      }
    }
  }
  return points;
}


// `venue` with every coordinate multiplied by `scale`.
Venue Scaled(const Venue& venue, double scale) {
  Venue::Builder builder;
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const Partition& partition = venue.partition(static_cast<PartitionId>(p));
    const Rect& r = partition.rect;
    builder.AddPartition(Rect{r.min_x * scale, r.min_y * scale,
                              r.max_x * scale, r.max_y * scale},
                         partition.floor);
  }
  for (size_t d = 0; d < venue.NumDoors(); ++d) {
    const Door& door = venue.door(static_cast<DoorId>(d));
    builder.AddDoor(Point2d{door.pos.x * scale, door.pos.y * scale},
                    door.floor, door.partitions[0], door.partitions[1]);
  }
  return ValueOrDie(std::move(builder).Build(), "Build");
}

// The partitions on each floor, by floor.
std::map<int, size_t> PartitionsPerFloor(const Venue& venue) {
  std::map<int, size_t> count;
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    ++count[venue.partition(static_cast<PartitionId>(p)).floor];
  }
  return count;
}

// Every partition corner and centre, and a half-cell lattice over each
// floor's grid, one cell past each edge: points that scale with the
// venue, holding the centre and the corners of every location cell.
std::vector<IndoorPoint> CellLattice(const Venue& venue) {
  std::vector<IndoorPoint> points;
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const Partition& partition = venue.partition(static_cast<PartitionId>(p));
    const Rect& r = partition.rect;
    for (const Point2d& at :
         {Point2d{r.min_x, r.min_y}, Point2d{r.max_x, r.max_y},
          Point2d{r.min_x, r.max_y}, Point2d{r.max_x, r.min_y},
          Point2d{r.min_x + r.width() / 2, r.min_y + r.height() / 2}}) {
      points.push_back({at, partition.floor});
    }
  }
  for (const auto& [floor, n] : PartitionsPerFloor(venue)) {
    const Venue::FloorIndex* grid = venue.LocationGrid(floor);
    if (grid == nullptr) continue;
    const double half = grid->cell / 2;
    for (int i = -2; i <= 2 * grid->cols + 2; ++i) {
      for (int j = -2; j <= 2 * grid->rows + 2; ++j) {
        points.push_back(
            {Point2d{grid->origin_x + i * half, grid->origin_y + j * half},
             floor});
      }
    }
  }
  return points;
}

void ExpectLocateMatchesBruteForceAt(const Venue& venue,
                                     const std::vector<IndoorPoint>& points) {
  for (const IndoorPoint& point : points) {
    ASSERT_EQ(venue.LocateAll(point), BruteForceLocate(venue, point))
        << "floor " << point.floor << " (" << point.p.x << ", " << point.p.y
        << ")";
  }
}

void ExpectLocateMatchesBruteForce(const Venue& venue) {
  const std::vector<IndoorPoint> points = ProbePoints(venue);
  ASSERT_FALSE(points.empty());
  ExpectLocateMatchesBruteForceAt(venue, points);
}

// Each door's row of `graph` holds exactly the bounds AtiSet::Create
// normalises that door's intervals of `venue` to.
void ExpectRowsMatchAtiSets(const Venue& venue, const ItGraph& graph) {
  ASSERT_EQ(graph.NumDoors(), venue.NumDoors());
  for (size_t d = 0; d < venue.NumDoors(); ++d) {
    const DoorId door = static_cast<DoorId>(d);
    const Span<TimeInterval> intervals = venue.DoorAti(door);
    const AtiSet want_set = ValueOrDie(
        AtiSet::Create({intervals.begin(), intervals.end()}), "AtiSet");
    const AtiRow want = want_set.row();
    const AtiRow row = graph.Ati(door);
    ASSERT_EQ(row.starts(), want.starts()) << "door " << d;
    ASSERT_EQ(row.ends(), want.ends()) << "door " << d;
    ASSERT_EQ(row.IsAlwaysOpen(), want.IsAlwaysOpen()) << "door " << d;
    ASSERT_EQ(row.InteriorBoundaries(), want.InteriorBoundaries())
        << "door " << d;
  }
}

bool SameIntervals(Span<TimeInterval> a, Span<TimeInterval> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const TimeInterval& x, const TimeInterval& y) {
                      return x.start == y.start && x.end == y.end;
                    });
}

TEST(LayoutTest, LocateAllMatchesAPartitionScan) {
  for (const Venue& venue : MakeFleet()) {
    ExpectLocateMatchesBruteForce(venue);
    // A copy and a FromVenue rebuild carry the same grid.
    ExpectLocateMatchesBruteForce(Venue(venue));
    ExpectLocateMatchesBruteForce(ValueOrDie(
        std::move(Venue::Builder::FromVenue(venue)).Build(), "Build"));
  }
}

// About one cell per partition: a floor of n partitions has at most
// 2n + 1 cells, whatever its area, and every floor with a partition has
// a grid.
TEST(LayoutTest, GridCellsFollowThePartitionCount) {
  for (const Venue& venue : MakeFleet()) {
    for (const auto& [floor, n] : PartitionsPerFloor(venue)) {
      const Venue::FloorIndex* grid = venue.LocationGrid(floor);
      ASSERT_NE(grid, nullptr) << "floor " << floor;
      EXPECT_GE(grid->cols, 1);
      EXPECT_GE(grid->rows, 1);
      EXPECT_LE(static_cast<size_t>(grid->cols) * grid->rows, 2 * n + 1)
          << "floor " << floor << ", " << n << " partitions";
    }
  }
}

// The grid of a venue drawn in millimetres or kilometres is the grid of
// the same venue in metres, scaled: same cells, each listing as many
// partitions, and lookups exact at points that scale with it.
TEST(LayoutTest, GridIsIndependentOfTheVenueUnits) {
  for (const Venue& venue : MakeFleet()) {
    for (double scale : {1e-3, 1e3}) {
      SCOPED_TRACE("scale " + std::to_string(scale));
      const Venue scaled = Scaled(venue, scale);
      for (const auto& [floor, n] : PartitionsPerFloor(venue)) {
        const Venue::FloorIndex* want = venue.LocationGrid(floor);
        const Venue::FloorIndex* got = scaled.LocationGrid(floor);
        ASSERT_NE(want, nullptr);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->cols, want->cols) << "floor " << floor;
        EXPECT_EQ(got->rows, want->rows) << "floor " << floor;
        EXPECT_EQ(got->cell_offsets, want->cell_offsets) << "floor " << floor;
      }
      ExpectLocateMatchesBruteForceAt(scaled, CellLattice(scaled));
    }
    ExpectLocateMatchesBruteForceAt(venue, CellLattice(venue));
  }
}

// Two rooms beside a 64 km square hall: a 64 m cell would give the
// floor a million cells, each listing the hall (8.0 MB).
TEST(LayoutTest, AHugeHallDoesNotGrowTheGrid) {
  Venue::Builder builder;
  const PartitionId hall = builder.AddPartition(Rect{0, 0, 64000, 64000}, 0);
  const PartitionId a = builder.AddPartition(Rect{64000, 0, 64010, 10}, 0);
  const PartitionId b = builder.AddPartition(Rect{64000, 10, 64010, 20}, 0);
  builder.AddDoor(Point2d{64000, 5}, 0, hall, a);
  builder.AddDoor(Point2d{64005, 10}, 0, a, b);
  const Venue venue = ValueOrDie(std::move(builder).Build(), "Build");
  EXPECT_LT(venue.MemoryUsage(), 1024u);
  ExpectLocateMatchesBruteForceAt(venue, CellLattice(venue));
}

// Coordinates near the ends of the double range: scaled by 1e-200 and
// 1e200, and two rooms at -1e308 and 1e308, whose floor's span
// overflows and gets one cell. Each builds, locates exactly, and comes
// back from its artifact with the grid it was written with.
TEST(LayoutTest, ExtremeCoordinatesBuildAndRoundTrip) {
  std::vector<Venue> venues;
  for (double scale : {1e-200, 1e200}) {
    venues.push_back(Scaled(MakeFleet()[0], scale));
  }
  Venue::Builder builder;
  const PartitionId low =
      builder.AddPartition(Rect{-1e308, -1e308, -9e307, -9e307}, 0);
  const PartitionId high =
      builder.AddPartition(Rect{9e307, 9e307, 1e308, 1e308}, 0);
  builder.AddDoor(Point2d{0, 0}, 0, low, high);
  venues.push_back(ValueOrDie(std::move(builder).Build(), "Build"));
  const Venue::FloorIndex* far = venues.back().LocationGrid(0);
  ASSERT_NE(far, nullptr);
  EXPECT_EQ(far->cols, 1);
  EXPECT_EQ(far->rows, 1);

  (void)std::system("mkdir -p layout_test_artifacts");
  const std::string path = "layout_test_artifacts/extreme.itspq";
  for (const Venue& venue : venues) {
    const std::vector<IndoorPoint> points = CellLattice(venue);
    ExpectLocateMatchesBruteForceAt(venue, points);
    ASSERT_TRUE(WriteVenueArtifact(path, venue).ok());
    const LoadedVenueWorld loaded =
        ValueOrDie(LoadVenueArtifact(path), "LoadVenueArtifact");
    for (const auto& [floor, n] : PartitionsPerFloor(venue)) {
      const Venue::FloorIndex* want = venue.LocationGrid(floor);
      const Venue::FloorIndex* got = loaded.venue->LocationGrid(floor);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->cell, want->cell);
      EXPECT_EQ(got->cell_partitions, want->cell_partitions);
    }
    ExpectLocateMatchesBruteForceAt(*loaded.venue, points);
  }
}

// Encodes `venue`, decodes it, and expects every floor's grid back as
// built and LocateAll exact on both sides: the loader derives the grids
// with the builder's code, so every venue that builds also loads. The
// grid lists at most kMaxGridEntriesPerPartition entries a partition.
void ExpectRoundTrips(const Venue& venue) {
  const std::vector<uint8_t> image =
      ValueOrDie(EncodeVenueArtifact(venue), "EncodeVenueArtifact");
  const LoadedVenueWorld loaded = ValueOrDie(
      DecodeVenueArtifact(image.data(), image.size()), "DecodeVenueArtifact");
  for (const auto& [floor, n] : PartitionsPerFloor(venue)) {
    SCOPED_TRACE("floor " + std::to_string(floor));
    const Venue::FloorIndex* want = venue.LocationGrid(floor);
    const Venue::FloorIndex* got = loaded.venue->LocationGrid(floor);
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(want->floor, floor);
    EXPECT_EQ(got->origin_x, want->origin_x);
    EXPECT_EQ(got->origin_y, want->origin_y);
    EXPECT_EQ(got->cell, want->cell);
    EXPECT_EQ(got->cols, want->cols);
    EXPECT_EQ(got->rows, want->rows);
    EXPECT_EQ(got->cell_offsets, want->cell_offsets);
    EXPECT_EQ(got->cell_partitions, want->cell_partitions);
    EXPECT_LE(want->cell_partitions.size(),
              Venue::kMaxGridEntriesPerPartition * n);
  }
  // The partition scan, one floor's partitions at a time.
  std::map<int, std::vector<PartitionId>> on_floor;
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const auto pid = static_cast<PartitionId>(p);
    on_floor[venue.partition(pid).floor].push_back(pid);
  }
  // Partitions share corners: each point once.
  std::vector<IndoorPoint> points = CellLattice(venue);
  auto key = [](const IndoorPoint& a) {
    return std::make_tuple(a.floor, a.p.x, a.p.y);
  };
  std::sort(points.begin(), points.end(),
            [&key](const auto& a, const auto& b) { return key(a) < key(b); });
  points.erase(std::unique(points.begin(), points.end(),
                           [&key](const auto& a, const auto& b) {
                             return key(a) == key(b);
                           }),
               points.end());
  for (const IndoorPoint& point : points) {
    std::vector<PartitionId> want;
    for (PartitionId pid : on_floor[point.floor]) {
      if (venue.partition(pid).rect.Contains(point.p)) want.push_back(pid);
    }
    ASSERT_EQ(venue.LocateAll(point), want)
        << "floor " << point.floor << " (" << point.p.x << ", " << point.p.y
        << ")";
    ASSERT_EQ(loaded.venue->LocateAll(point), want)
        << "loaded, floor " << point.floor << " (" << point.p.x << ", "
        << point.p.y << ")";
  }
}

// The grid sizing before entries were bounded: about one square cell
// per partition, each side clamped to [1, n], the cell never doubled.
Venue::FloorIndex UnboundedGrid(const Venue& venue, int floor) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rect box{kInf, kInf, -kInf, -kInf};
  double n = 0;
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const Partition& partition = venue.partition(static_cast<PartitionId>(p));
    if (partition.floor != floor) continue;
    const Rect& r = partition.rect;
    box = Rect{std::min(box.min_x, r.min_x), std::min(box.min_y, r.min_y),
               std::max(box.max_x, r.max_x), std::max(box.max_y, r.max_y)};
    ++n;
  }
  const double cell =
      std::sqrt(box.width()) * std::sqrt(box.height()) / std::sqrt(n);
  const bool sized = cell > 0 && cell < kInf;
  auto cells = [&](double extent) {
    return sized ? static_cast<int>(
                       std::min(std::max(std::ceil(extent / cell), 1.0), n))
                 : 1;
  };
  Venue::FloorIndex grid;
  grid.floor = floor;
  grid.origin_x = box.min_x;
  grid.origin_y = box.min_y;
  grid.cell = sized ? cell : 1;
  grid.cols = cells(box.width());
  grid.rows = cells(box.height());
  std::vector<std::vector<PartitionId>> lists(
      static_cast<size_t>(grid.cols) * grid.rows);
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const Partition& partition = venue.partition(static_cast<PartitionId>(p));
    if (partition.floor != floor) continue;
    const Rect& r = partition.rect;
    const size_t width = static_cast<size_t>(grid.cols);
    const size_t lo = grid.CellOf({r.min_x, r.min_y});
    const size_t hi = grid.CellOf({r.max_x, r.max_y});
    for (size_t row = lo / width; row <= hi / width; ++row) {
      for (size_t col = lo % width; col <= hi % width; ++col) {
        lists[row * width + col].push_back(static_cast<PartitionId>(p));
      }
    }
  }
  grid.cell_offsets.push_back(0);
  for (const std::vector<PartitionId>& list : lists) {
    grid.cell_partitions.insert(grid.cell_partitions.end(), list.begin(),
                                list.end());
    grid.cell_offsets.push_back(
        static_cast<uint32_t>(grid.cell_partitions.size()));
  }
  return grid;
}

// The fleets perfbench serves, interactive (1-3 floors, 2-4 shop rows)
// and batch_families (5 floors, 4 shop rows), on seeds 1 and 2: each
// round-trips, and the entry bound leaves every grid as it was sized
// before the bound existed.
TEST(LayoutTest, SeededFleetsRoundTripWithUnboundedGrids) {
  for (uint64_t seed : {1, 2}) {
    FleetConfig interactive;
    interactive.seed = seed;
    interactive.num_venues = 384;
    interactive.min_floors = 1;
    interactive.max_floors = 3;
    FleetConfig batch;
    batch.seed = seed;
    batch.num_venues = 16;
    batch.min_floors = batch.max_floors = 5;
    batch.min_shop_rows = batch.max_shop_rows = 4;
    for (const FleetConfig& config : {interactive, batch}) {
      const std::vector<Venue> fleet =
          ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
      for (size_t v = 0; v < fleet.size(); ++v) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", venue " +
                     std::to_string(v) + " of " +
                     std::to_string(fleet.size()));
        const Venue& venue = fleet[v];
        for (const auto& [floor, n] : PartitionsPerFloor(venue)) {
          const Venue::FloorIndex want = UnboundedGrid(venue, floor);
          const Venue::FloorIndex* got = venue.LocationGrid(floor);
          ASSERT_NE(got, nullptr);
          ASSERT_EQ(got->origin_x, want.origin_x);
          ASSERT_EQ(got->origin_y, want.origin_y);
          ASSERT_EQ(got->cell, want.cell);
          ASSERT_EQ(got->cols, want.cols);
          ASSERT_EQ(got->rows, want.rows);
          ASSERT_EQ(got->cell_offsets, want.cell_offsets);
          ASSERT_EQ(got->cell_partitions, want.cell_partitions);
        }
        ExpectRoundTrips(venue);
      }
    }
  }
}

// Two 10 m rooms joined by a door, on floors `low` and `high`.
Venue TwoRooms(int low, int high) {
  Venue::Builder builder;
  const PartitionId a = builder.AddPartition(Rect{0, 0, 10, 10}, low);
  const PartitionId b = builder.AddPartition(Rect{0, 0, 10, 10}, high);
  builder.AddDoor(Point2d{5, 5}, low, a, b);
  return ValueOrDie(std::move(builder).Build(), "Build");
}

// Floors far apart cost nothing between them: only floors that hold a
// partition have a grid, found by binary search, and the floor span is
// never computed, so INT_MIN and INT_MAX are floors like any other.
TEST(LayoutTest, DistantFloorsRoundTripInUnderAKilobyte) {
  for (const auto& [low, high] :
       {std::pair<int, int>{0, 100'000},
        std::pair<int, int>{std::numeric_limits<int>::min(),
                            std::numeric_limits<int>::max()}}) {
    SCOPED_TRACE("floors " + std::to_string(low) + " and " +
                 std::to_string(high));
    const Venue venue = TwoRooms(low, high);
    EXPECT_LT(venue.MemoryUsage(), 1024u);
    EXPECT_LT(ValueOrDie(EncodeVenueArtifact(venue), "EncodeVenueArtifact")
                  .size(),
              1024u);
    for (int floor : {low + 1, high - 1, (low / 2) + (high / 2)}) {
      EXPECT_EQ(venue.LocationGrid(floor), nullptr) << "floor " << floor;
    }
    ExpectRoundTrips(venue);
  }
}

// 4,000 identical rooms overlap every cell of a 64 × 64 grid: unbounded,
// 16.4 million entries (65.7 MB). The bound halves the grid to 4 × 4.
TEST(LayoutTest, OverlappingRoomsKeepTheGridLinear) {
  Venue::Builder builder;
  for (int i = 0; i < 4000; ++i) builder.AddPartition(Rect{0, 0, 10, 10}, 0);
  const Venue venue = ValueOrDie(std::move(builder).Build(), "Build");
  EXPECT_LT(venue.MemoryUsage(), 1u << 20);
  const Venue::FloorIndex* grid = venue.LocationGrid(0);
  ASSERT_NE(grid, nullptr);
  EXPECT_EQ(grid->cols, 4);
  EXPECT_EQ(grid->rows, 4);
  ExpectRoundTrips(venue);
}

// 1,000 shops under 20 zones that each span the floor: the zones push
// the entries past the bound, and halving stops while the grid still
// tells the shops apart.
TEST(LayoutTest, FloorWideZonesKeepAFineGrid) {
  Venue::Builder builder;
  for (int i = 0; i < 1000; ++i) {
    const double x = (i % 40) * 10.0, y = (i / 40) * 10.0;
    builder.AddPartition(Rect{x, y, x + 10, y + 10}, 0);
  }
  for (int i = 0; i < 20; ++i) builder.AddPartition(Rect{0, 0, 400, 250}, 0);
  const Venue venue = ValueOrDie(std::move(builder).Build(), "Build");
  const Venue::FloorIndex* grid = venue.LocationGrid(0);
  ASSERT_NE(grid, nullptr);
  const Venue::FloorIndex unbounded = UnboundedGrid(venue, 0);
  EXPECT_GT(unbounded.cell_partitions.size(),
            Venue::kMaxGridEntriesPerPartition * venue.NumPartitions());
  EXPECT_LT(grid->cols, unbounded.cols);
  EXPECT_GT(grid->cols * grid->rows, 1);
  ExpectRoundTrips(venue);
}

TEST(LayoutTest, DoorListsMatchADoorScan) {
  for (const Venue& venue : MakeFleet()) {
    for (size_t p = 0; p < venue.NumPartitions(); ++p) {
      std::vector<DoorId> want;
      for (size_t d = 0; d < venue.NumDoors(); ++d) {
        const Door& door = venue.door(static_cast<DoorId>(d));
        for (PartitionId side : door.partitions) {
          if (side == static_cast<PartitionId>(p)) {
            want.push_back(static_cast<DoorId>(d));
          }
        }
      }
      ASSERT_EQ(venue.DoorsOf(static_cast<PartitionId>(p)), want)
          << "partition " << p;
    }
  }
}

TEST(LayoutTest, AtiRowsMatchAtiSetsAcrossAnUpdateStream) {
  std::vector<Venue> fleet = MakeFleet();
  VenueCatalog catalog;
  for (Venue& venue : fleet) {
    ValueOrDie(catalog.AddVenue(std::move(venue), "itg-s"), "AddVenue");
  }
  for (VenueId v = 0; v < static_cast<VenueId>(catalog.NumVenues()); ++v) {
    ExpectRowsMatchAtiSets(catalog.venue(v), catalog.graph(v));
  }

  UpdateStreamConfig config;
  config.num_updates = 48;
  config.seed = 23;
  config.wrap_fraction = 0.25;
  config.always_open_fraction = 0.25;
  std::vector<TimedAtiUpdate> stream =
      ValueOrDie(GenerateUpdateStream(catalog, config), "GenerateUpdateStream");
  // The splice's two ends: the first and the last door of every venue,
  // one made to wrap past midnight, the other always open.
  for (VenueId v = 0; v < static_cast<VenueId>(catalog.NumVenues()); ++v) {
    const auto last = static_cast<DoorId>(catalog.venue(v).NumDoors() - 1);
    TimedAtiUpdate first_door, last_door;
    first_door.update = {v, 0, {MakeInterval(21, 0, 3, 30)}};
    last_door.update = {v, last, {}};
    stream.push_back(first_door);
    stream.push_back(last_door);
    last_door.update.intervals = {MakeInterval(7, 0, 9, 0),
                                  MakeInterval(8, 30, 19, 0)};
    stream.push_back(last_door);
  }

  for (const TimedAtiUpdate& timed : stream) {
    const AtiUpdate& update = timed.update;
    SCOPED_TRACE("venue " + std::to_string(update.venue_id) + " door " +
                 std::to_string(update.door_id));
    const std::shared_ptr<const VersionedGraph> before =
        catalog.world(update.venue_id);
    ValueOrDie(catalog.ApplyAtiUpdate(update), "ApplyAtiUpdate");
    const std::shared_ptr<const VersionedGraph> after =
        catalog.world(update.venue_id);
    ExpectRowsMatchAtiSets(after->venue(), after->graph());
    // The new epoch's venue holds the update's intervals for its door
    // and the previous epoch's for every other.
    for (size_t d = 0; d < after->venue().NumDoors(); ++d) {
      const DoorId door = static_cast<DoorId>(d);
      ASSERT_TRUE(SameIntervals(
          after->venue().DoorAti(door),
          door == update.door_id ? Span<TimeInterval>(update.intervals)
                                 : before->venue().DoorAti(door)))
          << "door " << d;
    }
  }
  ExpectLocateMatchesBruteForce(catalog.venue(0));
}

}  // namespace
}  // namespace itspq
