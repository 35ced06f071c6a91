#include "itgraph/csr_adjacency.h"

#include <algorithm>
#include <cmath>

namespace itspq {

CsrAdjacency CsrAdjacency::Compile(const Venue& venue) {
  CsrAdjacency adj;
  adj.door_positions.reserve(2 * venue.NumDoors());  // one per door side
  size_t widest = 0;
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    widest = std::max(widest,
                      venue.DoorsOf(static_cast<PartitionId>(p)).size());
  }
  std::vector<Point2d> row;
  row.reserve(widest);

  // The weight extremes over every door pair of every partition, taken
  // over squared distances with one sqrt at the end (sqrt is monotone).
  // Doors are swept in x order, and every cut is exact: rounding is
  // monotone, so fl(dx*dx + dy*dy) is at least fl(dx*dx) and at most the
  // same sum over the doors' bounding box.
  double min_sq = std::numeric_limits<double>::infinity();
  double max_sq = 0;
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    row.clear();
    for (DoorId d : venue.DoorsOf(static_cast<PartitionId>(p))) {
      adj.door_positions.push_back(venue.door(d).pos);
      row.push_back(venue.door(d).pos);
    }
    if (row.size() < 2) continue;
    std::sort(row.begin(), row.end(),
              [](const Point2d& a, const Point2d& b) { return a.x < b.x; });
    auto pair_sq = [&row](size_t i, size_t j) {
      const double dx = row[j].x - row[i].x;
      const double dy = row[j].y - row[i].y;
      return dx * dx + dy * dy;
    };
    // Min: a row ends at the first door whose dx alone reaches min_sq.
    for (size_t i = 0; i + 1 < row.size(); ++i) {
      for (size_t j = i + 1; j < row.size(); ++j) {
        const double dx = row[j].x - row[i].x;
        if (dx * dx >= min_sq) break;
        min_sq = std::min(min_sq, pair_sq(i, j));
      }
    }
    // Max: seeded with the two x-extreme doors; a row walks inward from
    // the far x end while dx and the row's widest |dy| could still beat
    // max_sq, and the whole partition is skipped when its box cannot.
    const size_t last = row.size() - 1;
    max_sq = std::max(max_sq, pair_sq(0, last));
    const auto [lo, hi] = std::minmax_element(
        row.begin(), row.end(),
        [](const Point2d& a, const Point2d& b) { return a.y < b.y; });
    const double width = row[last].x - row[0].x, height = hi->y - lo->y;
    if (width * width + height * height <= max_sq) continue;
    for (size_t i = 0; i < last; ++i) {
      const double dy = std::max(row[i].y - lo->y, hi->y - row[i].y);
      const double dy_sq = dy * dy;
      for (size_t j = last; j > i; --j) {
        const double dx = row[j].x - row[i].x;
        if (dx * dx + dy_sq <= max_sq) break;
        max_sq = std::max(max_sq, pair_sq(i, j));
      }
    }
  }
  adj.min_edge_weight = std::sqrt(min_sq);
  adj.max_edge_weight = std::sqrt(max_sq);
  return adj;
}

}  // namespace itspq
