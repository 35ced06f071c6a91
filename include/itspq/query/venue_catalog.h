#ifndef ITSPQ_QUERY_VENUE_CATALOG_H_
#define ITSPQ_QUERY_VENUE_CATALOG_H_

// The multi-venue serving state: N independently built venues (each
// with its own ItGraph, per-venue Router whose strategy name is
// resolved once, at registration (ParseTvCheck, strategies.h), and —
// inside the strategy — its own SnapshotStore), addressed by the dense
// VenueId carried in QueryRequest::venue_id.
//
//   VenueCatalog catalog;
//   for (Venue& v : fleet) {
//     StatusOr<VenueId> id = catalog.AddVenue(std::move(v), "itg-s");
//   }
//   ShardedRouter router(catalog);              // sharded_router.h
//   QueryContext context;                       // one per thread
//   router.Route(request, &context);            // request carries venue_id
//   CatalogStats report = catalog.Stats();
//
// Build the catalog fully before sharing it; once built, every
// accessor and the per-shard traffic counters are safe for concurrent
// use (the counters are atomics bumped by ShardedRouter::Route).
//
// Since the update plane (update/) landed, each shard's serving state
// lives in an immutable VersionedGraph published RCU-style: readers pin
// the current version with world(id) (a shared_ptr load), writers go
// through ApplyAtiUpdate, which derives the next version incrementally
// and atomically swaps the pointer. In-flight queries pinned to the old
// epoch finish on it bit-identically; per-shard writes are serialized
// by a per-shard mutex, reads never block on writes.
//
// Shards come in two flavours:
//   AddVenue(...)          — eager: built in-process, always resident.
//   AddArtifactShard(path) — lazy: registered by `.itspq` artifact path
//     (artifact/artifact.h), loaded on first query (EnsureResident) and
//     published as VersionedGraph epoch 0, so ApplyAtiUpdate composes
//     unchanged. SetResidencyBudget caps the bytes lazy shards keep
//     resident; overflow evicts the least recently used shards (the
//     LruOrder SnapshotStore also evicts by) by nulling the published
//     pointer — pinned readers finish on their epoch, the next query
//     reloads. A shard that has taken an online update is pinned
//     resident for good (its state has diverged from the artifact).

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "itgraph/itgraph.h"
#include "itgraph/snapshot_store.h"
#include "query/router.h"
#include "query/strategies.h"
#include "update/ati_update.h"
#include "update/versioned_graph.h"
#include "venue/venue.h"

namespace itspq {

/// Point-in-time counters and footprint for one venue shard.
struct ShardStats {
  VenueId venue_id = 0;
  std::string label;
  std::string strategy;
  /// Requests dispatched to this shard through a ShardedRouter
  /// (including ones that came back as per-request errors). Every
  /// dispatch lands in exactly one outcome bucket, so
  ///   queries_served == routes_found + routes_not_found + route_errors
  /// holds whenever the shard is quiescent.
  size_t queries_served = 0;
  size_t routes_found = 0;
  /// OK answers with no temporally valid route (found == false).
  size_t routes_not_found = 0;
  size_t route_errors = 0;
  /// The epoch the shard currently serves (0 until the first update).
  uint64_t epoch = 0;
  /// Write-path counters: ApplyAtiUpdate commits / failures, and the
  /// cumulative snapshot economics of those epoch transitions.
  size_t updates_applied = 0;
  size_t updates_rejected = 0;
  size_t update_snapshots_carried = 0;
  size_t update_snapshots_rebased = 0;
  size_t update_intervals_invalidated = 0;
  /// The shard router's snapshot-store counters (budget,
  /// hits/misses/evictions, full vs delta builds, resident bytes).
  CacheStatsSnapshot cache;
  /// Venue + IT-Graph + router shared state, bytes. 0 while a lazy
  /// shard is not resident.
  size_t memory_bytes = 0;
  /// Lazy-residency state: artifact-backed shard, currently resident,
  /// and how many times its artifact has been (re)loaded.
  bool lazy = false;
  bool resident = true;
  size_t loads = 0;
};

/// Stats() report: one entry per shard plus catalog-wide totals.
struct CatalogStats {
  std::vector<ShardStats> shards;
  size_t total_queries = 0;
  size_t total_found = 0;
  size_t total_not_found = 0;
  size_t total_errors = 0;
  size_t total_memory_bytes = 0;
  /// Catalog-wide write-path totals.
  size_t total_updates_applied = 0;
  size_t total_updates_rejected = 0;
  size_t total_update_snapshots_carried = 0;
  size_t total_update_intervals_invalidated = 0;
  /// Catalog-wide snapshot-store aggregate across shards.
  CacheStatsSnapshot total_cache;
  /// Lazy-residency report: artifact-backed shard count, how many
  /// shards are currently resident (eager ones always are), cumulative
  /// artifact loads and shard evictions, the configured budget, and the
  /// bytes the evictable lazy shards currently hold against it.
  size_t lazy_shards = 0;
  size_t resident_shards = 0;
  size_t total_loads = 0;
  size_t total_shard_evictions = 0;
  size_t residency_budget_bytes = 0;
  size_t resident_lazy_bytes = 0;
  /// Artifact load + world assembly latency of every cold load.
  LatencyHistogram load_latency;
};

class VenueCatalog {
 public:
  VenueCatalog() = default;

  /// Moves are for catalog assembly and handoff (e.g. into a
  /// QueryService) BEFORE the catalog is shared — they are not
  /// synchronized against concurrent readers or writers.
  VenueCatalog(VenueCatalog&& other) noexcept;
  VenueCatalog& operator=(VenueCatalog&& other) noexcept;
  VenueCatalog(const VenueCatalog&) = delete;
  VenueCatalog& operator=(const VenueCatalog&) = delete;

  /// Takes ownership of `venue`, resolves `strategy` (kNotFound on an
  /// unknown one, before anything is compiled), compiles its IT-Graph,
  /// and builds the shard router under `options` (snapshot-store
  /// budget). Returns the new shard's VenueId — ids
  /// are dense, in insertion order, starting at 0. On error the catalog
  /// is unchanged.
  StatusOr<VenueId> AddVenue(
      Venue venue, const std::string& strategy,
      std::string label = std::string(),
      const RouterBuildOptions& options = RouterBuildOptions());

  /// Registers a lazy shard backed by the `.itspq` artifact at `path`
  /// WITHOUT loading it: only the artifact header + section table and
  /// the names are validated (wrong magic, foreign endianness, a future
  /// format version, truncation or an unknown strategy name are
  /// rejected here and leave the catalog unchanged; payload
  /// corruption surfaces at first load). The shard becomes resident on
  /// the first EnsureResident — typically a ShardedRouter query —
  /// publishing the loaded world as epoch 0.
  StatusOr<VenueId> AddArtifactShard(
      const std::string& path, const std::string& strategy,
      std::string label = std::string(),
      const RouterBuildOptions& options = RouterBuildOptions());

  /// Caps the bytes clean lazy shards keep resident (0 = unlimited);
  /// past it the least recently used shards are evicted. `policy` must
  /// be "lru", the only residency policy (kNotFound otherwise); it stays
  /// only so existing callers compile, and the next change to the
  /// benchmark, which passes it, drops it. Call after the fleet is
  /// registered; re-call to re-target (the LRU order restarts in id
  /// order). Evicts immediately when the
  /// currently resident set overflows the new budget. Shards that have
  /// taken an online update are pinned resident and leave the budget's
  /// accounting.
  Status SetResidencyBudget(size_t budget_bytes,
                            const std::string& policy = "lru");

  /// Pins shard `id`'s world, loading its artifact first when the shard
  /// is lazy and cold (the returned status is the load error when that
  /// fails — the shard stays cold and the next call retries). The
  /// miss path serializes on the shard's update mutex; hits are one
  /// atomic load (plus an LRU touch when a residency budget is
  /// engaged). Requires Contains(id).
  StatusOr<std::shared_ptr<const VersionedGraph>> EnsureResident(
      VenueId id) const;

  /// True when shard `id` currently has a published world (always true
  /// for eager shards). Requires Contains(id).
  bool IsResident(VenueId id) const {
    return std::atomic_load(&shard(id).world) != nullptr;
  }

  /// Splits a catalog-wide snapshot budget evenly across the current
  /// shards and applies it via Router::SetSnapshotBudget (shards whose
  /// strategy has no snapshot store simply ignore theirs). Overflowing
  /// shards evict their least recently used snapshots immediately; 0
  /// restores unlimited stores. Call after the fleet is assembled;
  /// re-call to re-apportion after adding venues.
  void ApportionSnapshotBudget(size_t total_bytes);

  /// Applies one online ATI mutation to its shard: derives the next
  /// VersionedGraph incrementally (UpdateApplier::Apply) and publishes
  /// it with an atomic pointer swap. Per-shard writes are serialized
  /// under the shard's update mutex; reads are never blocked — they pin
  /// whichever version was current when they started. Errors (the
  /// catalog stays on the current epoch, the rejection is counted):
  ///   kNotFound        — unknown venue_id or door_id.
  ///   kInvalidArgument — replacement intervals fail normalisation.
  StatusOr<UpdateOutcome> ApplyAtiUpdate(const AtiUpdate& update);

  /// Pins the shard's current version: the returned shared_ptr keeps
  /// that epoch's venue/graph/router alive across any number of
  /// concurrent updates. The read side of the RCU contract — one atomic
  /// load, never blocks on writers. Null when a lazy shard is not
  /// resident (use EnsureResident to load-and-pin). Requires
  /// Contains(id).
  std::shared_ptr<const VersionedGraph> world(VenueId id) const;

  /// The epoch shard `id` currently serves. Requires Contains(id). A
  /// cold lazy shard serves epoch 0: one that has taken an update is
  /// pinned resident.
  uint64_t epoch(VenueId id) const {
    const std::shared_ptr<const VersionedGraph> pinned = world(id);
    return pinned != nullptr ? pinned->epoch() : 0;
  }

  size_t NumVenues() const { return shards_.size(); }
  bool Contains(VenueId id) const {
    return id >= 0 && static_cast<size_t>(id) < shards_.size();
  }

  /// Accessors require Contains(id) and a RESIDENT shard. The
  /// references point into the shard's CURRENT version and stay valid
  /// only until the next ApplyAtiUpdate on that shard retires it (or an
  /// eviction drops it) — single-threaded callers (tests, benches) may
  /// use them freely; concurrent readers must pin via world(id) /
  /// EnsureResident instead.
  const Venue& venue(VenueId id) const { return world(id)->venue(); }
  const ItGraph& graph(VenueId id) const { return world(id)->graph(); }
  const Router& router(VenueId id) const { return world(id)->router(); }
  const std::string& label(VenueId id) const { return shard(id).label; }

  /// Point-in-time report; safe to call while queries and updates are
  /// in flight.
  CatalogStats Stats() const;

 private:
  friend class ShardedRouter;

  struct Shard {
    std::string label;
    TvCheck check = TvCheck::kSynchronous;
    /// Router construction config, re-used when an update rebuilds the
    /// shard router (the applier refreshes the budget from the live
    /// store). Guarded by update_mu.
    RouterBuildOptions build_options;
    /// Lazy shards only: the backing `.itspq` artifact (empty = eager).
    std::string artifact_path;
    bool lazy = false;
    /// The published version. Accessed with std::atomic_load /
    /// std::atomic_store (C++17's shared_ptr atomic free functions):
    /// readers pin, the single in-flight writer (under update_mu, or
    /// the evictor under residency_mu_) swaps. mutable: cold loads and
    /// evictions happen on the const query path.
    mutable std::shared_ptr<const VersionedGraph> world;
    /// Serializes writers per shard.
    mutable std::mutex update_mu;
    /// Once set, the residency LRU never evicts this shard (it has
    /// taken an online update, so its state has diverged from the
    /// artifact on disk).
    mutable std::atomic<bool> unevictable{false};
    /// Artifact (re)loads performed for this shard.
    mutable std::atomic<size_t> loads{0};
    /// Residency accounting, guarded by the catalog's residency_mu_:
    /// bytes this shard contributes to the lazy budget (0 when cold or
    /// pinned).
    mutable size_t resident_bytes = 0;
    // Traffic counters, bumped by ShardedRouter::Route (mutable: the
    // whole query path is const). Route bumps queries_served together
    // with exactly one outcome counter so the ledger reconciles.
    mutable std::atomic<size_t> queries_served{0};
    mutable std::atomic<size_t> routes_found{0};
    mutable std::atomic<size_t> routes_not_found{0};
    mutable std::atomic<size_t> route_errors{0};
    // Write-path counters, bumped by ApplyAtiUpdate.
    mutable std::atomic<size_t> updates_applied{0};
    mutable std::atomic<size_t> updates_rejected{0};
    mutable std::atomic<size_t> update_snapshots_carried{0};
    mutable std::atomic<size_t> update_snapshots_rebased{0};
    mutable std::atomic<size_t> update_intervals_invalidated{0};
  };

  const Shard& shard(VenueId id) const {
    return *shards_[static_cast<size_t>(id)];
  }

  /// A shard for `strategy` under `options` (kNotFound on an unknown
  /// strategy), stamped with the id and label it takes once appended.
  StatusOr<std::unique_ptr<Shard>> NewShard(const std::string& strategy,
                                            const RouterBuildOptions& options,
                                            std::string label) const;

  /// Loads shard `s`'s artifact and publishes it as epoch 0. Caller
  /// holds s.update_mu; takes residency_mu_ for the accounting +
  /// evict-to-fit pass (lock order: update_mu before residency_mu_,
  /// never the reverse — the evictor never touches a victim's
  /// update_mu).
  StatusOr<std::shared_ptr<const VersionedGraph>> LoadShardLocked(
      const Shard& s, VenueId id) const;

  /// Pins shard `id` out of the evictable pool (first online update).
  /// Caller holds the shard's update_mu.
  void PinResidentLocked(const Shard& s, VenueId id) const;

  /// Evicts clean lazy shards until resident_lazy_bytes_ fits the
  /// budget, never evicting `protect`. Caller holds residency_mu_.
  void EvictToFitLocked(size_t protect) const;

  // unique_ptr keeps shard addresses stable across catalog moves and
  // vector growth, so routers and stats readers can hold references.
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Lazy-residency state. residency_mu_ guards the LRU order over the
  /// resident clean lazy shards, the byte accounting, the load-latency
  /// histogram, and every shard's resident_bytes. Cheap flag first: the
  /// query hot path skips the mutex entirely until SetResidencyBudget
  /// engages.
  mutable std::atomic<bool> residency_engaged_{false};
  mutable std::mutex residency_mu_;
  mutable LruOrder residency_lru_;
  mutable size_t residency_budget_bytes_ = 0;
  mutable size_t resident_lazy_bytes_ = 0;
  mutable size_t shard_evictions_ = 0;
  mutable LatencyHistogram load_latency_;
};

}  // namespace itspq

#endif  // ITSPQ_QUERY_VENUE_CATALOG_H_
