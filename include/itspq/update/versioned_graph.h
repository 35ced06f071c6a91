#ifndef ITSPQ_UPDATE_VERSIONED_GRAPH_H_
#define ITSPQ_UPDATE_VERSIONED_GRAPH_H_

// One immutable epoch of a venue's serving state.
//
// A VersionedGraph bundles everything a shard needs to answer queries —
// the venue, its compiled ItGraph, the checkpoint set, the per-boundary
// flip index, and the strategy Router (whose SnapshotStore memoises
// reduced graphs) — under a single epoch number. It is immutable after
// Build: the update plane (update_applier.h) never mutates a published
// version, it derives the NEXT version next to it and VenueCatalog
// swaps the shard's shared_ptr<const VersionedGraph> RCU-style. Readers
// that pinned the old epoch finish on it bit-identically; the old
// version is destroyed when the last pin drops.
//
// The checkpoint set and flip index are one BoundaryLedger
// (itgraph/checkpoints.h), compiled from the ATI rows in two walks —
// never by re-probing every (interval, door) pair — and compiled afresh
// for each update's next version. Build is the one way to epoch 0, for
// a venue built in memory and for one loaded from an `.itspq` file
// (artifact/artifact.h) alike.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "itgraph/checkpoints.h"
#include "itgraph/itgraph.h"
#include "query/router.h"
#include "query/strategies.h"
#include "venue/venue.h"

namespace itspq {

class UpdateApplier;

class VersionedGraph {
 public:
  /// Builds epoch 0 for `venue` under strategy `check`. The ledger is
  /// derived from the compiled graph; the router adopts it via a warm
  /// start so nothing is computed twice.
  /// `options.warm_start` is ignored (the version builds its own).
  static StatusOr<std::shared_ptr<const VersionedGraph>> Build(
      Venue venue, TvCheck check,
      const RouterBuildOptions& options = RouterBuildOptions());

  VersionedGraph(const VersionedGraph&) = delete;
  VersionedGraph& operator=(const VersionedGraph&) = delete;

  uint64_t epoch() const { return epoch_; }
  const Venue& venue() const { return *venue_; }
  const ItGraph& graph() const { return *graph_; }
  const Router& router() const { return *router_; }
  const CheckpointSet& checkpoints() const { return ledger_.checkpoints; }
  const BoundaryFlipIndex& flip_index() const { return ledger_.flips; }

  /// Venue + graph + router shared state + ledger, bytes. The ledger
  /// is counted once: the router and its store borrow it.
  size_t MemoryUsage() const;

 private:
  friend class UpdateApplier;

  VersionedGraph() = default;

  /// Builds router_ with a warm start from ledger_. Every construction
  /// path fills the ledger, then ends here.
  void FinishBuild(const SnapshotStore* carry_from,
                   std::vector<ptrdiff_t> carry_plan,
                   std::vector<size_t> invalidate);

  uint64_t epoch_ = 0;
  TvCheck check_ = TvCheck::kSynchronous;
  /// Router construction config, retained so the next epoch rebuilds
  /// under the same budget (the applier refreshes budget_bytes
  /// from the live store first). warm_start is always null here.
  RouterBuildOptions options_;

  // Destruction order (reverse of declaration) matters: graph_ points
  // into venue_ (whose geometry block other epochs share), router_ into
  // graph_, and the router and its snapshot store read ledger_ in place.
  std::unique_ptr<Venue> venue_;
  std::unique_ptr<ItGraph> graph_;
  BoundaryLedger ledger_;
  std::unique_ptr<Router> router_;
};

}  // namespace itspq

#endif  // ITSPQ_UPDATE_VERSIONED_GRAPH_H_
