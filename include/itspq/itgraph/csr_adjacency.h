#ifndef ITSPQ_ITGRAPH_CSR_ADJACENCY_H_
#define ITSPQ_ITGRAPH_CSR_ADJACENCY_H_

// Flat adjacency over the implicit door graph.
//
// Inside a partition every door reaches every other door in a straight
// line (partitions are convex), so the door graph is one clique per
// partition whose edge weights are the Euclidean distances between door
// positions. The clique is never stored: a relaxation walks the
// partition's door list and computes each weight from two positions,
// so the adjacency is O(doors) instead of O(edges).
//
// The door lists are the venue's own (Venue::DoorsOf, one entry per
// door side) and a door's sides its Door::partitions. The adjacency adds
// door_positions, aligned with those lists so that a scan reads each
// neighbour's position from the next bytes, not from the door array.
//
// A partition's neighbours are its doors other than d itself (a door
// joins two distinct partitions, so it is listed once in each); a
// search skips d through its settled check, as d is settled while its
// partitions are scanned.
// The weight EuclideanDistance(pos(u), pos(v)) is bitwise symmetric:
// a - b == -(b - a) exactly, and both square to the same value, so
// either end computes the same bits.
//
// min/max edge weight ride along for the frontier selection rule: the
// bucket queue (frontier_queue.h) is exact only when every edge weight
// is at least the bucket width, so BucketEligible() demands a strictly
// positive minimum and a bounded max/min ratio (the ring would
// otherwise grow with the ratio).

#include <cstddef>
#include <limits>
#include <vector>

#include "venue/geometry.h"
#include "venue/venue.h"

namespace itspq {

struct CsrAdjacency {
  /// One partition's doors: the venue's list and its positions.
  struct DoorList {
    const DoorId* ids;
    const Point2d* positions;
    size_t size;
  };

  std::vector<Point2d> door_positions;  // aligned with the venue's lists

  /// Extremes over every edge weight (a door pair sharing a partition,
  /// parallel edges included); min is +inf and max 0 on an edgeless
  /// graph. A zero min (two doors at the same position) is what
  /// disqualifies the bucket queue.
  double min_edge_weight = std::numeric_limits<double>::infinity();
  double max_edge_weight = 0;

  /// Compiles the venue's implicit adjacency, O(k log k) per partition
  /// of k doors. Geometry-only: ATIs play no part, which is why one
  /// compiled adjacency is shared across all update-plane epochs.
  static CsrAdjacency Compile(const Venue& venue);

  /// The doors of partition `p` in `venue`, the compiled venue or any
  /// epoch of it (ATI edits keep the door lists).
  DoorList DoorsOf(const Venue& venue, PartitionId p) const {
    const Span<DoorId> ids = venue.DoorsOf(p);
    return {ids.begin(), door_positions.data() + venue.DoorListOffset(p),
            ids.size()};
  }

  /// Max bucket-ring span the frontier selection rule tolerates before
  /// falling back to the 4-ary heap.
  static constexpr double kMaxBucketSpan = 4096.0;

  /// True when Dial's bucket queue with width = min_edge_weight is
  /// exact and affordable for this graph.
  bool BucketEligible() const {
    return min_edge_weight > 0 &&
           min_edge_weight < std::numeric_limits<double>::infinity() &&
           max_edge_weight <= min_edge_weight * kMaxBucketSpan;
  }

  size_t MemoryUsage() const {
    return door_positions.capacity() * sizeof(Point2d);
  }
};

}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_CSR_ADJACENCY_H_
