#include "itgraph/door_search.h"

#include <algorithm>

namespace itspq {
namespace internal {

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
