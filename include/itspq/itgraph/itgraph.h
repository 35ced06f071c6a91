#ifndef ITSPQ_ITGRAPH_ITGRAPH_H_
#define ITSPQ_ITGRAPH_ITGRAPH_H_

// The IT-Graph (paper §II-C): doors as nodes, with an AtiSet per door
// compiled from the venue's temporal variations. Intra-partition edges
// are implicit — a door's neighbours are the other doors of its two
// partitions, each at the straight-line distance between the two door
// positions — so the graph stays small and always consistent with the
// venue.
//
// The graph keeps a pointer to the venue it was built from; the venue
// must outlive the graph.
//
// Alongside the per-door AtiSet objects (the source of truth for
// checkpoint derivation, artifact encoding, and copy-on-write epoch
// rebuilds), the graph compiles two hot-path views at build time:
//
//   - a CsrAdjacency (csr_adjacency.h): flat partition door lists and
//     door positions the relaxation loop walks, shared by shared_ptr
//     across update-plane epochs (ATI edits never change geometry,
//     which BuildFrom already enforces);
//   - flat ATI rows (offsets + start/end pools): AtiContainsTimeOfDay
//     answers the ITG/S per-relaxation membership probe with a short
//     linear scan over one contiguous row instead of a binary search
//     through a heap-allocated AtiSet.

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
  /// IT-Graph. Errors when some door's intervals fail AtiSet
  /// normalisation. `venue` must outlive the returned graph.
  static StatusOr<ItGraph> Build(const Venue& venue);

  /// Copy-on-write rebuild after a single-door ATI edit: adopts
  /// `prev`'s compiled AtiSet rows verbatim and re-normalises only
  /// `changed_door` from `venue` (which must hold the post-edit state
  /// with the same door count as prev.venue(), else kInvalidArgument).
  /// The returned graph points at `venue`, not prev's venue.
  static StatusOr<ItGraph> BuildFrom(const ItGraph& prev, const Venue& venue,
                                     DoorId changed_door);

  ItGraph(ItGraph&&) = default;
  ItGraph& operator=(ItGraph&&) = default;

  size_t NumDoors() const { return atis_.size(); }

  const AtiSet& Ati(DoorId d) const { return atis_[static_cast<size_t>(d)]; }

  /// Hot-path equivalent of Ati(d).ContainsTimeOfDay(tod) over the
  /// compiled flat rows: true when door `d` is passable at `tod` (any
  /// absolute time accepted and wrapped). Rows are tiny (a handful of
  /// disjoint sorted intervals), so a forward scan beats the AtiSet
  /// binary search and never leaves the row's cache lines.
  bool AtiContainsTimeOfDay(DoorId d, double tod) const {
    const uint32_t begin = ati_offsets_[static_cast<size_t>(d)];
    const uint32_t end = ati_offsets_[static_cast<size_t>(d) + 1];
    if (begin == end) return true;  // always open
    const double t =
        (tod >= 0 && tod < kSecondsPerDay) ? tod : WrapTimeOfDay(tod);
    // Last interval starting at or before t, as in AtiSet.
    uint32_t last = end;
    for (uint32_t i = begin; i < end && ati_starts_[i] <= t; ++i) last = i;
    return last != end && t < ati_ends_[last];
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
  friend class ArtifactCodec;  // adopts compiled AtiSets without re-normalising

  explicit ItGraph(const Venue& venue) : venue_(&venue) {}

  /// Flattens atis_ into the ati_offsets_/starts_/ends_ rows. Every
  /// construction path (Build, BuildFrom, artifact adoption) ends here.
  void CompileAtiRows();

  const Venue* venue_;
  std::vector<AtiSet> atis_;  // indexed by DoorId; the source of truth

  // Compiled hot-path views (see file comment).
  std::shared_ptr<const CsrAdjacency> adj_;
  std::vector<uint32_t> ati_offsets_;  // NumDoors() + 1
  std::vector<double> ati_starts_;
  std::vector<double> ati_ends_;
};

}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_ITGRAPH_H_
