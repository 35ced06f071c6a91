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
// Layout, all flat:
//
//   seg_partition  : door d owns segments 2d and 2d+1, one per entry of
//                    DoorPartitions(d) in order (also the pruning key)
//   door_offsets   : partition p's doors are door_ids[door_offsets[p] ..
//   door_ids       :   door_offsets[p + 1]), in Venue::DoorsOf order
//   door_positions : aligned with door_ids, so a scan reads each
//                    neighbour's position from the next bytes instead of
//                    gathering it from a per-door array
//
// A segment's neighbours are its partition's doors other than d itself
// (listed once per side of d naming the partition); a search skips d
// through its settled check, as d is settled while its segments are
// scanned. The weight EuclideanDistance(pos(u), pos(v)) is bitwise
// symmetric: a - b == -(b - a) exactly, and both square to the same
// value, so either end computes the same bits.
//
// min/max edge weight ride along for the frontier selection rule: the
// bucket queue (frontier_queue.h) is exact only when every edge weight
// is at least the bucket width, so BucketEligible() demands a strictly
// positive minimum and a bounded max/min ratio (the ring would
// otherwise grow with the ratio).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "venue/geometry.h"

namespace itspq {

class Venue;

struct CsrAdjacency {
  /// One partition's doors: views into door_ids and door_positions.
  struct DoorList {
    const uint32_t* ids;
    const Point2d* positions;
    size_t size;
  };

  std::vector<PartitionId> seg_partition;  // size 2 * num_doors
  std::vector<uint32_t> door_offsets;      // size num_partitions + 1
  std::vector<uint32_t> door_ids;          // one entry per door side
  std::vector<Point2d> door_positions;     // aligned with door_ids

  /// Extremes over every edge weight (a door pair sharing a partition,
  /// parallel edges included); min is +inf and max 0 on an edgeless
  /// graph. A zero min (two doors at the same position) is what
  /// disqualifies the bucket queue.
  double min_edge_weight = std::numeric_limits<double>::infinity();
  double max_edge_weight = 0;
  size_t num_doors = 0;

  /// Compiles the venue's implicit adjacency. Geometry-only: ATIs play
  /// no part, which is why one compiled adjacency is shared across all
  /// update-plane epochs of a venue.
  static CsrAdjacency Compile(const Venue& venue);

  /// The doors of partition `p`, in Venue::DoorsOf order.
  DoorList DoorsOf(size_t p) const {
    const uint32_t begin = door_offsets[p];
    return {door_ids.data() + begin, door_positions.data() + begin,
            door_offsets[p + 1] - begin};
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
    return seg_partition.capacity() * sizeof(PartitionId) +
           (door_offsets.capacity() + door_ids.capacity()) * sizeof(uint32_t) +
           door_positions.capacity() * sizeof(Point2d);
  }
};

}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_CSR_ADJACENCY_H_
