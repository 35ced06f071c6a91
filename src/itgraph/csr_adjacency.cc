#include "itgraph/csr_adjacency.h"

#include <cmath>

#include "venue/venue.h"

namespace itspq {

CsrAdjacency CsrAdjacency::Compile(const Venue& venue) {
  CsrAdjacency adj;
  const size_t n = venue.NumDoors();
  adj.num_doors = n;
  adj.seg_partition.reserve(2 * n);
  for (size_t d = 0; d < n; ++d) {
    const auto& sides = venue.door(static_cast<DoorId>(d)).partitions;
    adj.seg_partition.insert(adj.seg_partition.end(), sides.begin(),
                             sides.end());
  }

  // The weight extremes over every door pair of every partition. Taken
  // over squared distances with one sqrt at the end: sqrt is monotone,
  // so the result is exactly the extreme of the EuclideanDistance
  // values a search computes.
  double min_sq = std::numeric_limits<double>::infinity();
  double max_sq = 0;
  adj.door_offsets.reserve(venue.NumPartitions() + 1);
  adj.door_offsets.push_back(0);
  adj.door_ids.reserve(2 * n);
  adj.door_positions.reserve(2 * n);
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const size_t first = adj.door_ids.size();
    for (DoorId d : venue.DoorsOf(static_cast<PartitionId>(p))) {
      adj.door_ids.push_back(static_cast<uint32_t>(d));
      adj.door_positions.push_back(venue.door(d).pos);
    }
    const size_t last = adj.door_ids.size();
    for (size_t i = first; i < last; ++i) {
      const Point2d& a = adj.door_positions[i];
      for (size_t j = i + 1; j < last; ++j) {
        if (adj.door_ids[j] == adj.door_ids[i]) continue;  // names p twice
        const Point2d& b = adj.door_positions[j];
        const double dx = a.x - b.x;
        const double dy = a.y - b.y;
        const double sq = dx * dx + dy * dy;
        if (sq < min_sq) min_sq = sq;
        if (sq > max_sq) max_sq = sq;
      }
    }
    adj.door_offsets.push_back(static_cast<uint32_t>(last));
  }
  adj.min_edge_weight = std::sqrt(min_sq);
  adj.max_edge_weight = std::sqrt(max_sq);
  return adj;
}

}  // namespace itspq
