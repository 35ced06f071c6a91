// The flat venue world against brute force, over a seeded fleet: point
// location through the per-floor cell grid answers exactly as a scan of
// every partition, and every door's compiled ATI row is exactly what
// AtiSet::Create makes of that door's intervals — at epoch 0 and after
// each update of a seeded stream, whose splices include the first and
// the last door.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

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
// each floor's bounding box from its corner, which holds the centre and
// the corners of every 64 m location cell.
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

void ExpectLocateMatchesBruteForce(const Venue& venue) {
  const std::vector<IndoorPoint> points = ProbePoints(venue);
  ASSERT_FALSE(points.empty());
  for (const IndoorPoint& point : points) {
    ASSERT_EQ(venue.LocateAll(point), BruteForceLocate(venue, point))
        << "floor " << point.floor << " (" << point.p.x << ", " << point.p.y
        << ")";
  }
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
