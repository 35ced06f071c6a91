#ifndef ITSPQ_ITGRAPH_SNAPSHOT_STORE_H_
#define ITSPQ_ITGRAPH_SNAPSHOT_STORE_H_

// The budgeted memoisation layer over Graph_Update.
//
// SnapshotStore replaces the grow-forever SnapshotCache: it owns a byte
// budget, evicts least-recently-used intervals past it, hands snapshots
// out as shared_ptr<const GraphSnapshot> so concurrent Route() readers
// keep a pinned mask alive across an eviction, and fills misses with
// the cheap delta builder (BuildSnapshotDelta from a resident adjacent
// interval) whenever it can, falling back to the from-G0 Alg. 3 build.
//
//   SnapshotStoreOptions opts;
//   opts.budget_bytes = 64 << 10;   // 0 = unlimited
//   SnapshotStore store(graph, cps, opts);
//   std::shared_ptr<const GraphSnapshot> snap = store.Get(interval);
//
// All methods are thread-safe. Get() serialises on one mutex; callers
// on the query hot path pin the returned shared_ptr per interval in
// their QueryContext so the lock is taken once per (query, interval),
// not per relaxation.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "itgraph/checkpoints.h"
#include "itgraph/graph_update.h"
#include "itgraph/itgraph.h"

namespace itspq {

/// Least-recently-used order over dense ids: SnapshotStore's interval
/// slots and VenueCatalog's lazy shards. Each tracked id holds a stamp
/// from a counter that only goes up, so a touch is one store and the
/// victim is the smallest stamp. Not thread-safe; callers hold their
/// own mutex.
class LruOrder {
 public:
  /// Marks `id` most recently used, tracking it if it was not.
  void Touch(size_t id) {
    if (id >= stamps_.size()) stamps_.resize(id + 1, 0);
    stamps_[id] = ++clock_;
  }
  /// Stops tracking `id`.
  void Forget(size_t id) {
    if (id < stamps_.size()) stamps_[id] = 0;
  }
  bool Tracked(size_t id) const {
    return id < stamps_.size() && stamps_[id] != 0;
  }
  /// The least recently touched tracked id other than `protect`; false
  /// when there is none.
  bool Victim(size_t protect, size_t* victim) const {
    uint64_t oldest = 0;
    for (size_t id = 0; id < stamps_.size(); ++id) {
      const uint64_t stamp = stamps_[id];
      if (stamp == 0 || id == protect) continue;
      if (oldest == 0 || stamp < oldest) {
        oldest = stamp;
        *victim = id;
      }
    }
    return oldest != 0;
  }

 private:
  std::vector<uint64_t> stamps_;  // 0 = not tracked
  uint64_t clock_ = 0;
};

class SnapshotStore;

/// Marks a new interval with no carry source in SnapshotWarmStart's plan.
inline constexpr ptrdiff_t kNoCarrySource = -1;

/// Warm-start state for building a store (and its router) from a
/// VersionedGraph's ledger, and after an online ATI update for carrying
/// the previous version's snapshots (UpdateApplier,
/// update/update_applier.h). All pointers are borrowed: checkpoints and
/// flip_index must outlive the store, the rest only its construction.
struct SnapshotWarmStart {
  /// The graph's checkpoint set, from the version's BoundaryLedger.
  /// Router reads it in place instead of re-deriving FromGraph.
  const CheckpointSet* checkpoints = nullptr;
  /// Flip index of (graph, checkpoints), from the same ledger. The
  /// store reads it in place, so the first delta build never pays the
  /// O(intervals x doors) probe; it must outlive the store.
  const BoundaryFlipIndex* flip_index = nullptr;
  /// The previous version's store; resident snapshots carry across.
  const SnapshotStore* carry_from = nullptr;
  /// Per new interval: the old interval covering the identical time
  /// span, or kNoCarrySource when the span itself changed. Size must be
  /// checkpoints->NumIntervals().
  std::vector<ptrdiff_t> carry_plan;
  /// New interval indices whose open-door set changed across the update
  /// (the changed door's applicability differs there). Their carry-plan
  /// entries are not carried; a resident old snapshot counts as
  /// invalidated instead.
  std::vector<size_t> invalidate;
};

/// Construction config; RouterBuildOptions (query/router.h) carries it
/// to the router's store.
struct SnapshotStoreOptions {
  /// Resident-snapshot byte ceiling; 0 = unlimited. Past it the least
  /// recently used intervals are evicted, but one snapshot always stays
  /// resident even when it alone exceeds the budget (the caller needs
  /// the mask it just asked for).
  size_t budget_bytes = 0;
};

/// Point-in-time counters of one store — also the payload of
/// Router::CacheStats(), which is how ShardStats/CatalogStats surface
/// per-shard cache behaviour.
struct CacheStatsSnapshot {
  size_t budget_bytes = 0;
  size_t resident_snapshots = 0;
  size_t resident_bytes = 0;
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  /// Miss fills, split by builder.
  size_t full_builds = 0;
  size_t delta_builds = 0;
  /// Door bits applied across all delta builds (each delta touches
  /// exactly its boundary's flip-list size).
  size_t delta_door_touches = 0;
  /// Epoch-transition accounting (zero outside the update plane):
  /// resident snapshots whose shared_ptr slot moved verbatim from the
  /// previous version's store, ones re-issued under a shifted interval
  /// index (mask shared logically, never re-derived), and intervals
  /// whose resident snapshot was dropped because its open-door set
  /// changed (ctor warm start or InvalidateIntervals).
  size_t snapshots_carried = 0;
  size_t snapshots_rebased = 0;
  size_t intervals_invalidated = 0;

  size_t builds() const { return full_builds + delta_builds; }

  /// Shard/catalog aggregation: sums every counter.
  void Accumulate(const CacheStatsSnapshot& other);
};

class SnapshotStore {
 public:
  /// `graph` and `cps` must outlive the store, and `cps` must be the
  /// graph's checkpoint set. A non-null `warm` seeds the store from a
  /// version's ledger: the flip index is borrowed and resident
  /// snapshots are carried per warm->carry_plan (skipping
  /// warm->invalidate) — see SnapshotWarmStart. Without one the store
  /// derives its flip index with BoundaryLedger::Build.
  SnapshotStore(const ItGraph& graph, const CheckpointSet& cps,
                SnapshotStoreOptions options = SnapshotStoreOptions(),
                const SnapshotWarmStart* warm = nullptr);

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// The snapshot for `interval_index`, built on miss (delta from a
  /// resident neighbour when there is one, else from G0). The returned
  /// shared_ptr pins the snapshot: it stays valid after the store
  /// evicts that interval. When `built_now` is non-null it is set to
  /// whether this call performed a Graph_Update derivation.
  std::shared_ptr<const GraphSnapshot> Get(size_t interval_index,
                                           bool* built_now = nullptr) const;

  /// Re-targets the byte budget (0 = unlimited), evicting immediately
  /// if the resident set now overflows. Thread-safe — this is how
  /// VenueCatalog apportions a catalog-wide budget across shards after
  /// the shard routers exist.
  void SetBudget(size_t budget_bytes) const;

  CacheStatsSnapshot Stats() const;

  /// Drops the resident snapshots of exactly `intervals` (indices out of
  /// range or already non-resident are ignored) and returns how many
  /// were actually dropped. Pinned shared_ptrs held by in-flight queries
  /// stay valid — only the store's slots are released. Thread-safe; the
  /// update plane calls this when an ATI change flips a door inside an
  /// interval whose span survived the checkpoint re-derivation.
  size_t InvalidateIntervals(const std::vector<size_t>& intervals) const;

  size_t NumIntervals() const { return slots_.size(); }

  /// Process-unique store identity. A query context keeps its resident
  /// mask warm across queries under this id, so the mask is reused only
  /// against the store's own graph — a recycled heap address (epoch
  /// swap, another shard's router) can never alias a previous store.
  uint64_t id() const { return id_; }

  /// Store overhead + resident snapshots + the flip index when the
  /// store owns it (a borrowed warm-start index is its owner's).
  size_t MemoryUsage() const;

  /// The per-boundary flip lists delta builds apply.
  const BoundaryFlipIndex& flip_index() const { return *flips_; }

 private:
  /// Evicts least-recently-used slots under `mu_` until the resident
  /// set fits budget_bytes_ (none when it is 0), never evicting
  /// `protect`.
  void EvictToFitLocked(size_t protect) const;

  const ItGraph* graph_;
  const CheckpointSet* cps_;
  const uint64_t id_;
  /// Empty when the warm start lends the flip index.
  const BoundaryFlipIndex owned_flips_;
  /// The warm start's flip index, or owned_flips_.
  const BoundaryFlipIndex* const flips_;

  mutable std::mutex mu_;
  /// One slot per interval; null when not resident. Guarded by mu_.
  mutable std::vector<std::shared_ptr<const GraphSnapshot>> slots_;
  /// Recency of the resident slots. Guarded by mu_, like every field
  /// below. budget_bytes_ is mutable because SetBudget is const (stores
  /// live behind const routers once published).
  mutable LruOrder lru_;
  mutable size_t budget_bytes_;
  mutable size_t resident_bytes_ = 0;
  mutable size_t resident_count_ = 0;
  mutable size_t hits_ = 0;
  mutable size_t misses_ = 0;
  mutable size_t evictions_ = 0;
  mutable size_t full_builds_ = 0;
  mutable size_t delta_builds_ = 0;
  mutable size_t delta_door_touches_ = 0;
  mutable size_t carried_ = 0;
  mutable size_t rebased_ = 0;
  mutable size_t invalidated_ = 0;
};

}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_SNAPSHOT_STORE_H_
