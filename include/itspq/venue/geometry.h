#ifndef ITSPQ_VENUE_GEOMETRY_H_
#define ITSPQ_VENUE_GEOMETRY_H_

// Planar primitives for the indoor space model. Partitions are
// axis-aligned rectangles on a floor; doors are points on partition
// boundaries. Distances are metres.

#include <cmath>
#include <cstdint>

namespace itspq {

/// Index of a partition within a Venue.
using PartitionId = int32_t;
/// Index of a door within a Venue (and node id within an ItGraph).
using DoorId = int32_t;
/// Index of a venue within a VenueCatalog (the shard key of the
/// multi-venue serving layer; see query/venue_catalog.h).
using VenueId = int32_t;

inline constexpr PartitionId kInvalidPartition = -1;
inline constexpr DoorId kInvalidDoor = -1;

struct Point2d {
  double x = 0;
  double y = 0;
};

inline double EuclideanDistance(const Point2d& a, const Point2d& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// A point somewhere in the venue: planar position + floor number.
struct IndoorPoint {
  Point2d p;
  int floor = 0;
};

/// Axis-aligned rectangle, closed on all edges.
struct Rect {
  double min_x = 0;
  double min_y = 0;
  double max_x = 0;
  double max_y = 0;

  bool Contains(const Point2d& pt) const {
    return pt.x >= min_x && pt.x <= max_x && pt.y >= min_y && pt.y <= max_y;
  }

  bool IsFinite() const {
    return std::isfinite(min_x) && std::isfinite(min_y) &&
           std::isfinite(max_x) && std::isfinite(max_y);
  }
  double width() const { return max_x - min_x; }
  double height() const { return max_y - min_y; }
};

}  // namespace itspq

#endif  // ITSPQ_VENUE_GEOMETRY_H_
