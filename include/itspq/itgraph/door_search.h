#ifndef ITSPQ_ITGRAPH_DOOR_SEARCH_H_
#define ITSPQ_ITGRAPH_DOOR_SEARCH_H_

// Internal: how a query point joins the door graph (PointAttachment,
// AttachPoint, SharesPartition) and how a door-graph search finishes at
// a target point (BestCompletion). The search itself is TemporalRouter's
// kernel behind query/strategies.h; the tests keep a plain static
// Dijkstra as its reference.
//
// Not part of the stable public API — symbols live in itspq::internal.

#include <limits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "venue/venue.h"

namespace itspq {
namespace internal {

inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// How a free-standing indoor point connects to the door graph: its
/// containing partitions and the straight-line offset to each of their
/// doors.
struct PointAttachment {
  std::vector<PartitionId> partitions;
  std::vector<std::pair<DoorId, double>> door_offsets;
};

/// Errors with kInvalidArgument when the point lies outside every
/// partition of the venue.
StatusOr<PointAttachment> AttachPoint(const Venue& venue,
                                      const IndoorPoint& point);

/// True when the two attachments share a partition (direct in-partition
/// walk possible, no door needed).
bool SharesPartition(const PointAttachment& a, const PointAttachment& b);

/// Best way to finish a search at `pt`: the direct in-partition walk
/// (when `src` and `dst` share a partition) against entering through
/// each of `dst`'s doors, where `cost_to_door(door)` is the search's
/// cost of reaching that door. Returns {total metres, entry door used}
/// with door == kInvalidDoor for the direct walk, and
/// {kInfDistance, kInvalidDoor} when nothing completes. The workload
/// generator and the tests' reference searches finish through this
/// definition, and TemporalRouter's point-to-point goal computes the
/// same minimum as it settles doors, so their distances agree exactly.
template <typename CostToDoorFn>
std::pair<double, DoorId> BestCompletion(const PointAttachment& src,
                                         const PointAttachment& dst,
                                         const Point2d& ps, const Point2d& pt,
                                         CostToDoorFn&& cost_to_door) {
  double best =
      SharesPartition(src, dst) ? EuclideanDistance(ps, pt) : kInfDistance;
  DoorId last = kInvalidDoor;
  for (const auto& [door, offset] : dst.door_offsets) {
    const double total = cost_to_door(door) + offset;
    if (total < best) {
      best = total;
      last = door;
    }
  }
  return {best, last};
}

}  // namespace internal
}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_DOOR_SEARCH_H_
