#ifndef ITSPQ_ITGRAPH_DOOR_SEARCH_H_
#define ITSPQ_ITGRAPH_DOOR_SEARCH_H_

// Internal: plain (time-oblivious) Dijkstra over the door graph, used
// by the D2D index and the query generator. Every Router strategy runs
// the temporal search behind query/strategies.h (TemporalRouter); this
// one only supports a static open-door mask.
//
// Not part of the stable public API — symbols live in itspq::internal.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "itgraph/door_mask.h"
#include "itgraph/frontier_queue.h"
#include "itgraph/itgraph.h"
#include "venue/venue.h"

namespace itspq {
namespace internal {

inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// Per-door labels of one Dijkstra run, generation-stamped: a label is
/// valid only when its stamp matches the run's generation, so starting
/// a new search over the same arrays costs one counter bump instead of
/// three O(doors) assigns. Read through Dist/Parent/Settled — the raw
/// vectors hold stale garbage at unstamped indices (path walks may read
/// them directly: every door on a found path was labelled this run).
struct DoorSearchResult {
  std::vector<double> dist;
  std::vector<DoorId> parent;
  /// label_stamp[i] == generation  <=>  dist/parent[i] are this run's.
  std::vector<uint32_t> label_stamp;
  /// settled_stamp[i] == generation  <=>  door i was settled this run.
  std::vector<uint32_t> settled_stamp;
  uint32_t generation = 0;
  /// The frontier, owned here so repeated runs reuse its storage.
  FrontierQueue frontier;

  double Dist(size_t i) const {
    return label_stamp[i] == generation ? dist[i] : kInfDistance;
  }
  DoorId Parent(size_t i) const {
    return label_stamp[i] == generation ? parent[i] : kInvalidDoor;
  }
  bool Settled(size_t i) const { return settled_stamp[i] == generation; }

  void Label(size_t i, double d, DoorId from) {
    dist[i] = d;
    parent[i] = from;
    label_stamp[i] = generation;
  }

  /// Opens a new run over `n` doors: O(1) generation bump, O(n) only on
  /// first use, a size change, or the (once per 2^32 runs) stamp wrap.
  void PrepareForSearch(size_t n) {
    if (dist.size() != n) {
      dist.assign(n, kInfDistance);
      parent.assign(n, kInvalidDoor);
      label_stamp.assign(n, 0);
      settled_stamp.assign(n, 0);
      generation = 0;
    }
    if (++generation == 0) {
      std::fill(label_stamp.begin(), label_stamp.end(), 0);
      std::fill(settled_stamp.begin(), settled_stamp.end(), 0);
      generation = 1;
    }
  }
};

/// Multi-source Dijkstra over the implicit door graph. `sources` seed
/// doors with initial offsets (e.g. the walk from a query point to each
/// door of its partition). Doors whose `open_mask` bit is clear are
/// skipped entirely; pass nullptr to treat every door as open. Writes
/// into `out`, reusing its vectors' capacity — how QueryContext
/// amortises allocations across queries.
void DoorDijkstra(const ItGraph& graph,
                  const std::vector<std::pair<DoorId, double>>& sources,
                  const DoorMask* open_mask, DoorSearchResult* out);

/// Convenience overload returning a fresh result.
inline DoorSearchResult DoorDijkstra(
    const ItGraph& graph,
    const std::vector<std::pair<DoorId, double>>& sources,
    const DoorMask* open_mask) {
  DoorSearchResult result;
  DoorDijkstra(graph, sources, open_mask, &result);
  return result;
}

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
/// {kInfDistance, kInvalidDoor} when nothing completes. Every consumer
/// of a door-graph search (engine agreement checks, D2D index, workload
/// generator) must share this definition, and TemporalRouter's
/// point-to-point goal computes the same minimum as it settles doors —
/// the bench comparisons assume identical completion semantics.
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
