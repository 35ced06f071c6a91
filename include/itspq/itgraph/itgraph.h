#ifndef ITSPQ_ITGRAPH_ITGRAPH_H_
#define ITSPQ_ITGRAPH_ITGRAPH_H_

// The IT-Graph (paper §II-C): doors as nodes, with one normalised ATI
// per door compiled from the venue's temporal variations. Intra-partition
// edges are implicit — a door's neighbours are the other doors of its two
// partitions, each at the straight-line distance between the two door
// positions — so the graph stays small and always consistent with the
// venue.
//
// The graph keeps a pointer to the venue it was built from; the venue
// must outlive the graph.
//
// Two flat stores hold everything a search reads:
//
//   - a CsrAdjacency (csr_adjacency.h): door positions aligned with the
//     venue's partition door lists, which the relaxation loop walks,
//     shared by shared_ptr across update-plane epochs (ATI edits never
//     change geometry, which BuildFrom already enforces);
//   - the ATI rows (offsets + start/end pools): door d's normalised
//     intervals, one contiguous row per door. They are the only store
//     of the compiled ATIs; Ati(d) hands out a view of one row.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "itgraph/ati.h"
#include "itgraph/csr_adjacency.h"
#include "venue/venue.h"

namespace itspq {

class ItGraph {
 public:
  /// Compiles `venue`'s doors and per-door time intervals into an
  /// IT-Graph, normalising each door straight into the ATI rows. Errors
  /// when some door's intervals fail AtiSet normalisation. `venue` must
  /// outlive the returned graph.
  static StatusOr<ItGraph> Build(const Venue& venue);

  /// Copy-on-write rebuild after a single-door ATI edit: copies
  /// `prev`'s ATI rows, splicing in `changed_door`'s row re-normalised
  /// from `venue` (which must hold the post-edit state
  /// with the same door count as prev.venue(), else kInvalidArgument).
  /// The returned graph points at `venue`, not prev's venue.
  static StatusOr<ItGraph> BuildFrom(const ItGraph& prev, const Venue& venue,
                                     DoorId changed_door);

  ItGraph(ItGraph&&) = default;
  ItGraph& operator=(ItGraph&&) = default;

  size_t NumDoors() const { return ati_offsets_.size() - 1; }

  /// Door `d`'s normalised ATI: a view of its row, valid while the
  /// graph lives. Its ContainsTimeOfDay is the search's membership probe.
  AtiRow Ati(DoorId d) const {
    const uint32_t begin = ati_offsets_[static_cast<size_t>(d)];
    return {ati_starts_.data() + begin, ati_ends_.data() + begin,
            ati_offsets_[static_cast<size_t>(d) + 1] - begin};
  }

  /// fn(d, t) for each interior boundary t (strictly inside the day)
  /// of each door d's row: door by door, each row in order.
  template <typename Fn>
  void ForEachInteriorBoundary(Fn fn) const {
    for (DoorId d = 0; static_cast<size_t>(d) < NumDoors(); ++d) {
      for (uint32_t i = ati_offsets_[d]; i < ati_offsets_[d + 1]; ++i) {
        if (ati_starts_[i] > 0) fn(d, ati_starts_[i]);
        if (ati_ends_[i] < kSecondsPerDay) fn(d, ati_ends_[i]);
      }
    }
  }

  /// The compiled flat adjacency every search iterates.
  const CsrAdjacency& adjacency() const { return *adj_; }

  /// The shared adjacency handle — epochs built via BuildFrom alias
  /// their predecessor's (the update plane's geometry-immutability
  /// guarantee makes that sound), which tests assert by pointer.
  const std::shared_ptr<const CsrAdjacency>& adjacency_handle() const {
    return adj_;
  }

  const Point2d& DoorPos(DoorId d) const {
    return venue_->door(d).pos;
  }

  /// The two partitions door `d` connects.
  const std::array<PartitionId, 2>& DoorPartitions(DoorId d) const {
    return venue_->door(d).partitions;
  }

  const Venue& venue() const { return *venue_; }

  size_t MemoryUsage() const;

 private:
  explicit ItGraph(const Venue& venue) : venue_(&venue) {}

  /// Fills the empty ATI rows: every door's normalised from venue_, or,
  /// given `prev`, every door's but `changed`'s copied from it. Errors
  /// name the door.
  Status FillAtiRows(const ItGraph* prev, DoorId changed);

  const Venue* venue_;
  std::shared_ptr<const CsrAdjacency> adj_;
  // Door d's normalised intervals are [ati_starts_[i], ati_ends_[i]) for
  // i in [ati_offsets_[d], ati_offsets_[d + 1]); an empty row is always
  // open.
  std::vector<uint32_t> ati_offsets_;  // NumDoors() + 1
  std::vector<double> ati_starts_;
  std::vector<double> ati_ends_;
};

}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_ITGRAPH_H_
