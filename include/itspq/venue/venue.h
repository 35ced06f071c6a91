#ifndef ITSPQ_VENUE_VENUE_H_
#define ITSPQ_VENUE_VENUE_H_

// The indoor space model (paper §II): a multi-floor set of partitions
// (axis-aligned rooms/corridors) connected by doors. Each door lies on
// the boundary of exactly two partitions; vertical doors (staircases)
// connect partitions on adjacent floors. Temporal variation is attached
// per door as a list of applicable time intervals (empty = always open);
// the IT-Graph layer normalises those into its ATI rows.
//
// Every per-door, per-partition and per-grid-cell list is one offsets +
// pool pair, so a venue is a fixed number of flat arrays (two more per
// floor that holds a partition) whatever its size. All but the door
// intervals form one geometry block behind a shared_ptr, which copies
// clone and ATI edits share. Only partitions, doors and intervals are
// source data: the door lists and the grids are derived from them, by
// the builder and the artifact loader alike.
//
// Venues are immutable once built. Construct through Venue::Builder:
//
//   Venue::Builder b;
//   PartitionId room = b.AddPartition({0, 0, 10, 10}, /*floor=*/0);
//   PartitionId hall = b.AddPartition({0, 10, 10, 20}, 0);
//   b.AddDoor({5, 10}, 0, room, hall);
//   StatusOr<Venue> venue = std::move(b).Build();

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "common/time.h"
#include "venue/geometry.h"

namespace itspq {

struct Partition {
  Rect rect;
  int floor = 0;
};

struct Door {
  Point2d pos;
  /// Floor the door is drawn on. A vertical (staircase) door connecting
  /// floors f and f+1 records the lower floor.
  int floor = 0;
  /// The two partitions the door connects.
  std::array<PartitionId, 2> partitions = {kInvalidPartition,
                                           kInvalidPartition};
};
static_assert(sizeof(Door) <= 32, "a door is a position, floor and two ids");

class Venue {
 public:
  class Builder;

  Venue(Venue&&) = default;
  Venue& operator=(Venue&&) = default;
  /// Deep: a copy never keeps its source's geometry block alive.
  Venue(const Venue& other);
  Venue& operator=(const Venue& other);

  size_t NumPartitions() const { return geometry_->partitions.size(); }
  size_t NumDoors() const { return geometry_->doors.size(); }

  const Partition& partition(PartitionId p) const {
    return geometry_->partitions[static_cast<size_t>(p)];
  }
  const Door& door(DoorId d) const {
    return geometry_->doors[static_cast<size_t>(d)];
  }

  /// Doors on the boundary of partition `p`, ascending.
  Span<DoorId> DoorsOf(PartitionId p) const {
    return CsrList(geometry_->door_offsets, geometry_->door_ids,
                   static_cast<size_t>(p));
  }

  /// Where DoorsOf(p) starts in the flat door-side order of all lists.
  size_t DoorListOffset(PartitionId p) const {
    return geometry_->door_offsets[static_cast<size_t>(p)];
  }

  /// Door `d`'s applicable time intervals as set (not normalised);
  /// empty means always open.
  Span<TimeInterval> DoorAti(DoorId d) const {
    return CsrList(ati_offsets_, ati_intervals_, static_cast<size_t>(d));
  }

  /// FromVenue -> SetDoorAti(d, intervals) -> Build without the
  /// builder's copy: the geometry shared, the interval rows copied once
  /// with `d`'s spliced in. Errors on an unknown door.
  StatusOr<Venue> WithDoorAti(DoorId d, Span<TimeInterval> intervals) const;

  /// All partitions containing `point` (several when the point lies on a
  /// shared boundary; empty when it is outside every partition).
  std::vector<PartitionId> LocateAll(const IndoorPoint& point) const;

  /// One floor's uniform grid for LocateAll: about one square cell per
  /// partition of the floor, cols and rows each in [1, n] for its n
  /// partitions, then halved (the cell doubled) while the cells would
  /// list more than kMaxGridEntriesPerPartition · n entries; 1×1 lists
  /// exactly n. Cell c (row-major) lists the partitions it overlaps,
  /// ascending, as a CSR list.
  struct FloorIndex {
    int floor = 0;
    double origin_x = 0, origin_y = 0;
    double cell = 1;
    int cols = 0, rows = 0;
    std::vector<uint32_t> cell_offsets;  // cols * rows + 1
    std::vector<PartitionId> cell_partitions;

    /// The cell holding `p`, row-major. A point off the grid, or a NaN,
    /// lands on the nearest edge cell, so lookups stay exact when cols
    /// or rows is clamped. A rectangle overlaps the cells between those
    /// of its two corners.
    size_t CellOf(const Point2d& p) const;
  };

  /// Bounds a floor's grid entries, so a grid takes O(n) memory for
  /// any n rectangles: without it n overlapping ones list n·(2n + 1).
  static constexpr size_t kMaxGridEntriesPerPartition = 16;

  /// `floor`'s grid, by binary search; null when no partition lies on
  /// that floor.
  const FloorIndex* LocationGrid(int floor) const;

  /// Heap bytes, the geometry block counted whole even when shared.
  size_t MemoryUsage() const;

 private:
  friend class Builder;
  /// The artifact serializer (artifact/artifact.h) reads and re-adopts
  /// the private representation verbatim, skipping geometry recompute.
  friend class ArtifactCodec;
  Venue() = default;

  // Everything an ATI edit leaves alone, immutable once a Venue holds it.
  struct Geometry {
    std::vector<Partition> partitions;
    std::vector<Door> doors;
    std::vector<uint32_t> door_offsets;  // NumPartitions() + 1
    std::vector<DoorId> door_ids;
    /// One grid per floor that holds a partition, by ascending floor.
    std::vector<FloorIndex> floor_index;

    /// The builder's checks, which the artifact loader runs too: finite,
    /// non-degenerate rectangles; doors at finite positions joining two
    /// distinct known partitions.
    Status CheckPartitions() const;
    Status CheckDoors() const;
    /// Derives the door lists from doors (one entry per door side).
    void BuildDoorLists();
    /// Derives floor_index from partitions, in O(P log P).
    void BuildLocationIndex();
  };

  std::shared_ptr<const Geometry> geometry_;
  std::vector<uint32_t> ati_offsets_;  // NumDoors() + 1
  std::vector<TimeInterval> ati_intervals_;
};

/// Accumulates partitions and doors, then validates and freezes them
/// into a Venue (computing door lists and the point-location index).
class Venue::Builder {
 public:
  Builder();

  PartitionId AddPartition(const Rect& rect, int floor);

  /// Adds a door at `pos` on `floor` connecting partitions `a` and `b`.
  /// For a vertical door, `floor` is the lower of the two floors.
  DoorId AddDoor(const Point2d& pos, int floor, PartitionId a, PartitionId b);

  /// Replaces door `d`'s applicable time intervals (doors start always
  /// open). Venues are immutable once built — ATIs can only be set
  /// here, so an ItGraph can never silently desynchronise from its
  /// venue. Errors on an unknown door.
  Status SetDoorAti(DoorId d, std::vector<TimeInterval> intervals);

  /// Seeds the builder with an existing venue's partitions, doors, and
  /// ATIs — how the temporal-variation generator re-derives a varied
  /// venue from a frozen one. As long as no partition or door is added
  /// afterwards, the built venue shares the source's geometry block
  /// (ATI edits via SetDoorAti don't change geometry); the first
  /// AddPartition or AddDoor clones it. Copies the two interval arrays.
  static Builder FromVenue(const Venue& venue);

  /// Validates the accumulated venue. Errors: a door referencing an
  /// unknown partition or connecting a partition to itself, a door
  /// position that is not finite, or a partition rectangle that is
  /// degenerate or not finite.
  StatusOr<Venue> Build() &&;

 private:
  explicit Builder(const Venue& source);
  /// The geometry block, cloned first when it is still the source's.
  Geometry& MutableGeometry();

  /// The venue under construction, its interval rows always one per
  /// door. After FromVenue its geometry is the source's block, which
  /// Build() keeps while no partition or door has been added since.
  Venue venue_;
  std::shared_ptr<Geometry> owned_;  // venue_'s block, once not shared
  /// SetDoorAti replacements, applied by Build(); any other door keeps
  /// its row of venue_, or none.
  std::map<DoorId, std::vector<TimeInterval>> ati_edits_;
};

}  // namespace itspq

#endif  // ITSPQ_VENUE_VENUE_H_
