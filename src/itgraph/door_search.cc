#include "itgraph/door_search.h"

#include <algorithm>

#include "itgraph/csr_adjacency.h"

namespace itspq {
namespace internal {

void DoorDijkstra(const ItGraph& graph,
                  const std::vector<std::pair<DoorId, double>>& sources,
                  const DoorMask* open_mask, DoorSearchResult* out) {
  const size_t n = graph.NumDoors();
  out->PrepareForSearch(n);

  const CsrAdjacency& adj = graph.adjacency();
  FrontierQueue& frontier = out->frontier;
  // Plain (time-oblivious) Dijkstra is pop-order independent within a
  // bucket when every edge weight covers the bucket width, so Dial's
  // queue is exact here whenever the graph's weights allow it.
  if (adj.BucketEligible()) {
    frontier.ResetBuckets(adj.min_edge_weight);
  } else {
    frontier.ResetHeap();
  }

  for (const auto& [door, offset] : sources) {
    const size_t d = static_cast<size_t>(door);
    if (open_mask != nullptr && !open_mask->Test(door)) continue;
    if (offset < out->Dist(d)) {
      out->Label(d, offset, kInvalidDoor);
      frontier.Push(offset, static_cast<uint32_t>(door));
    }
  }

  double top_dist;
  uint32_t top_id;
  while (frontier.Pop(&top_dist, &top_id)) {
    const size_t u = top_id;
    if (out->Settled(u)) continue;
    out->settled_stamp[u] = out->generation;

    // The doors of u's two partitions, u itself skipped as settled.
    const Point2d at = graph.DoorPos(static_cast<DoorId>(u));
    for (PartitionId side : graph.DoorPartitions(static_cast<DoorId>(u))) {
      const CsrAdjacency::DoorList doors = adj.DoorsOf(graph.venue(), side);
      auto relax = [&](size_t k) {
        const auto vi = static_cast<size_t>(doors.ids[k]);
        if (out->Settled(vi)) return;
        const double nd = top_dist + EuclideanDistance(at, doors.positions[k]);
        if (nd < out->Dist(vi)) {
          out->Label(vi, nd, static_cast<DoorId>(u));
          frontier.Push(nd, static_cast<uint32_t>(vi));
        }
      };
      if (open_mask != nullptr) {
        open_mask->ForEachSetAmong(doors.ids, doors.size, relax);
      } else {
        for (size_t k = 0; k < doors.size; ++k) relax(k);
      }
    }
  }
}

StatusOr<PointAttachment> AttachPoint(const Venue& venue,
                                      const IndoorPoint& point) {
  PointAttachment attachment;
  attachment.partitions = venue.LocateAll(point);
  if (attachment.partitions.empty()) {
    return InvalidArgumentError("point lies outside every partition");
  }
  for (PartitionId p : attachment.partitions) {
    for (DoorId d : venue.DoorsOf(p)) {
      attachment.door_offsets.emplace_back(
          d, EuclideanDistance(point.p, venue.door(d).pos));
    }
  }
  return attachment;
}

bool SharesPartition(const PointAttachment& a, const PointAttachment& b) {
  for (PartitionId pa : a.partitions) {
    if (std::find(b.partitions.begin(), b.partitions.end(), pa) !=
        b.partitions.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace internal
}  // namespace itspq
