#ifndef ITSPQ_UPDATE_UPDATE_APPLIER_H_
#define ITSPQ_UPDATE_UPDATE_APPLIER_H_

// The epoch transition (the tentpole of the update plane).
//
// Given a shard's current VersionedGraph and one AtiUpdate,
// UpdateApplier::Apply derives the NEXT version next to it:
//
//   venue        — Venue::WithDoorAti: the geometry block (partitions,
//                  doors, door lists, point-location grid) shared, the
//                  interval rows copied with the door's row replaced.
//   graph        — ItGraph::BuildFrom: a copy of the flat ATI rows with
//                  the changed door's row spliced in, re-normalised; the
//                  search adjacency is shared, not copied.
//   ledger       — BoundaryLedger::Build over the new rows: the
//                  checkpoint set and the flip index in two walks, no
//                  (interval x door) re-probe.
//   snapshots    — a carry plan maps each new interval to the old
//                  interval spanning the identical time range; resident
//                  snapshots carry their shared_ptr slots across unless
//                  the changed door's applicability differs there
//                  (SnapshotStore warm start / InvalidateIntervals).
//
// Apply never touches `current` beyond const reads of its store (one
// mutex hold to lift resident slots): published versions are immutable.
// Cost is O(doors + P) for P interior ATI boundaries — the interval
// and ATI row copies are flat arrays, and the ledger walks every row —
// plus O(|T| log |T|) for the carry plan and the carry work itself.

#include <memory>

#include "common/status.h"
#include "update/ati_update.h"
#include "update/versioned_graph.h"

namespace itspq {

class UpdateApplier {
 public:
  /// Derives the next version of `current` under `update`. Errors:
  ///   kNotFound          — update.door_id is not a door of the venue.
  ///   kInvalidArgument   — the replacement intervals fail AtiSet
  ///                        normalisation (e.g. zero-length interval).
  /// On error `current` is untouched and nothing is published. On
  /// success the returned version has epoch() == current.epoch() + 1
  /// and `outcome` (when non-null) holds the transition receipt.
  static StatusOr<std::shared_ptr<const VersionedGraph>> Apply(
      const VersionedGraph& current, const AtiUpdate& update,
      UpdateOutcome* outcome = nullptr);
};

}  // namespace itspq

#endif  // ITSPQ_UPDATE_UPDATE_APPLIER_H_
