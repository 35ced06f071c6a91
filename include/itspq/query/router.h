#ifndef ITSPQ_QUERY_ROUTER_H_
#define ITSPQ_QUERY_ROUTER_H_

// The unified, concurrency-ready query API.
//
// A Router is the immutable, shareable side of a query strategy: the
// IT-Graph, its derived CheckpointSet, and (for strategies that need
// one) a thread-safe SnapshotStore, all constructed once. Everything
// mutable during a search — distance/parent/visited arrays, the
// priority queue, per-query snapshot scratch — lives in a QueryContext
// owned by the caller. Route() is const and safe to call concurrently
// from any number of threads, each with its own context:
//
//   auto router = MakeRouter("itg-s", graph);      // strategies.h
//   QueryContext ctx;                               // one per thread
//   StatusOr<QueryResult> r =
//       (*router)->Route({ps, pt, Instant::FromHMS(12)}, &ctx);
//
// Strategies (the closed TvCheck set) are resolved by name through
// MakeRouter (strategies.h): "itg-s", "itg-a", "itg-a+", "snap", "ntv".

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "itgraph/checkpoints.h"
#include "itgraph/itgraph.h"
#include "itgraph/snapshot_store.h"
#include "query/path.h"
#include "venue/geometry.h"

namespace itspq {

namespace internal {
struct SearchScratch;
}  // namespace internal

/// Which question a QueryRequest asks. Every concrete strategy answers
/// all four, so the families inherit sharding, batching, snapshot
/// budgets, QoS admission, and the wire protocol from the point-to-point
/// machinery for free. The numeric values double as the network edge's
/// wire encoding (net/wire.h) — frozen, append only.
enum class QueryKind : uint8_t {
  /// Shortest temporally valid path source -> target (the paper's
  /// δs2t query). The default; family fields below are ignored.
  kPointToPoint = 0,
  /// Every door reachable from `source` within `budget_seconds` of
  /// walking, each temporally valid at its projected arrival.
  kReachability = 1,
  /// The `k` nearest of the `facilities` doors by temporal walking
  /// distance from `source`, each open at its projected arrival.
  kNearestFacility = 2,
  /// An ordered itinerary source -> waypoints... -> target, each leg
  /// departing at the previous leg's arrival, rule-1 valid end to end.
  kMultiStop = 3,
};

/// One past the last valid wire value; bytes at or above it fail the
/// temporal-frame decode.
inline constexpr uint8_t kNumQueryKinds = 4;

/// Per-request knobs. Strategies ignore options that don't apply to
/// them: SNAP and NTV ignore both (SNAP always reads the shared store,
/// NTV has none), and the reachability / nearest-facility sweeps ignore
/// pruning under every strategy.
struct QueryOptions {
  /// Alg. 1 lines 18-19: expand each partition through exactly one
  /// entry door. Off = conventional door-graph Dijkstra.
  bool partition_visited_pruning = true;
  /// ITG/A, ITG/A+: read reduced graphs from the router's shared
  /// per-interval SnapshotStore instead of rebuilding from G0 per
  /// query (extension measured in ablation_snapshot_cache). The
  /// store's budget is construction-time config
  /// (RouterBuildOptions below).
  bool use_snapshot_cache = false;
};

/// Construction-time config for a query strategy — the shared snapshot
/// cache's byte budget. Threaded through MakeRouter and the TemporalRouter
/// constructor; NTV, which owns no snapshot store, ignores the cache
/// settings.
struct RouterBuildOptions {
  SnapshotStoreOptions snapshot_cache;
  /// Non-null when a VersionedGraph builds the router
  /// (update/versioned_graph.h): the router adopts the version's
  /// checkpoint set and flip index instead of re-deriving them from the
  /// graph, and on an update its snapshot store carries resident
  /// snapshots from the previous version. Borrowed for construction
  /// only — never stored — except its checkpoint set and flip index,
  /// which are read in place and must outlive the router.
  const SnapshotWarmStart* warm_start = nullptr;
  /// The VenueId this router answers for. Route() accepts requests
  /// whose venue_id is 0 (unaddressed) or equals the bound id, and
  /// rejects every other id with kInvalidArgument — before this check
  /// a mismatched id was silently answered by the wrong venue whenever
  /// callers bypassed ShardedRouter. VenueCatalog stamps each shard's
  /// id here at AddVenue / AddArtifactShard, so epoch rebuilds and
  /// lazy artifact loads inherit the binding.
  VenueId bound_venue_id = 0;
};

/// One temporal query: where from, where to, departing when, and which
/// question (`kind`) to answer. `departure` must be finite — NaN/±inf
/// is rejected with kInvalidArgument by every strategy (and at the wire
/// decode) instead of silently surfacing as found == false.
struct QueryRequest {
  IndoorPoint source;
  /// kPointToPoint / kMultiStop: the (final) destination. Ignored by
  /// kReachability and kNearestFacility.
  IndoorPoint target;
  Instant departure;
  QueryOptions options;
  /// Which venue shard answers this request. The composite
  /// ShardedRouter (sharded_router.h) dispatches on it; single-venue
  /// routers accept 0 or their bound id and reject the rest
  /// (RouterBuildOptions::bound_venue_id).
  VenueId venue_id = 0;
  /// The query family; family fields below apply per the kind's doc.
  QueryKind kind = QueryKind::kPointToPoint;
  /// kReachability: walking-time budget from departure, seconds.
  /// Must be finite and >= 0.
  double budget_seconds = 0;
  /// kNearestFacility: how many facilities to return. Must be >= 1.
  uint32_t k = 0;
  /// kNearestFacility: candidate facility doors (e.g. every café door
  /// in the venue). Ids must be in range; duplicates collapse.
  std::vector<DoorId> facilities;
  /// kMultiStop: ordered intermediate stops between source and target.
  /// Must be non-empty (otherwise ask kPointToPoint).
  std::vector<IndoorPoint> waypoints;
};

/// Caller-owned mutable scratch for Route(). Reusing one context across
/// sequential queries amortises allocations; concurrent callers must
/// use one context per thread. Contents are implementation scratch —
/// opaque to API consumers.
class QueryContext {
 public:
  QueryContext();
  ~QueryContext();

  QueryContext(QueryContext&&) noexcept;
  QueryContext& operator=(QueryContext&&) noexcept;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Strategy-internal accessor (complete type in src/query/scratch.h).
  internal::SearchScratch& scratch() { return *scratch_; }

 private:
  std::unique_ptr<internal::SearchScratch> scratch_;
};

/// A query strategy bound to one IT-Graph. Immutable after
/// construction; see the file comment for the concurrency contract.
/// The graph must outlive the router.
class Router {
 public:
  virtual ~Router() = default;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Shortest temporally-valid path for `request`. Errors when either
  /// endpoint lies outside the venue; an unreachable target yields
  /// ok() with `found == false`. `context` may be null for one-off
  /// calls (a throwaway context is created); pass one per thread to
  /// reuse scratch.
  virtual StatusOr<QueryResult> Route(const QueryRequest& request,
                                      QueryContext* context) const = 0;

  /// Strategy name ("itg-s", "snap", ...; TvCheckName).
  const std::string& name() const { return name_; }

  /// The venue id this router answers for
  /// (RouterBuildOptions::bound_venue_id); requests carrying any other
  /// non-zero venue_id are rejected with kInvalidArgument. Always 0 for
  /// composites (ShardedRouter dispatches instead of validating).
  VenueId bound_venue_id() const { return bound_venue_id_; }

  /// False only for composite routers (ShardedRouter) that span several
  /// graphs; graph() and checkpoints() require has_graph().
  bool has_graph() const { return graph_ != nullptr; }
  const ItGraph& graph() const { return *graph_; }
  /// Checkpoints derived from the graph's ATI boundaries at
  /// construction, or the set a VersionedGraph lent it.
  const CheckpointSet& checkpoints() const { return *checkpoints_; }

  /// Point-in-time counters of the router's shared snapshot store —
  /// hits, misses, evictions, full-vs-delta builds, resident bytes.
  /// Default-constructed (all zero) for strategies without a store;
  /// composite routers aggregate over their shards. Thread-safe.
  virtual CacheStatsSnapshot CacheStats() const {
    return CacheStatsSnapshot();
  }

  /// Re-targets the snapshot store's byte budget (0 = unlimited),
  /// evicting least recently used snapshots immediately when over.
  /// No-op for strategies without a store. This is the hook
  /// VenueCatalog uses to apportion a catalog-wide budget across
  /// shards. Thread-safe (const:
  /// the store synchronises internally, and the update plane publishes
  /// routers behind shared_ptr<const VersionedGraph>).
  virtual void SetSnapshotBudget(size_t budget_bytes) const {
    (void)budget_bytes;
  }

  /// Bytes of shared cross-query state owned by the router itself
  /// (derived checkpoints, snapshot store). The graph, the venue and a
  /// lent checkpoint set are accounted by whoever owns them.
  virtual size_t MemoryUsage() const;

  /// The router's shared snapshot store, or null for strategies without
  /// one ("ntv") and composites. The update plane reads it to carry
  /// resident snapshots (and the live budget) into the next epoch.
  virtual const SnapshotStore* snapshot_store() const { return nullptr; }

 protected:
  /// A non-null `precomputed` checkpoint set, which must outlive the
  /// router, is read in place instead of derived via FromGraph — a
  /// VersionedGraph lends its ledger's set through warm_start.
  Router(std::string name, const ItGraph& graph,
         const CheckpointSet* precomputed = nullptr);
  /// Composite routers: no single backing graph, empty checkpoints.
  explicit Router(std::string name);

  /// Concrete strategies call this from their constructor with
  /// RouterBuildOptions::bound_venue_id.
  void BindVenueId(VenueId id) { bound_venue_id_ = id; }

 private:
  std::string name_;
  const ItGraph* graph_;
  CheckpointSet owned_checkpoints_;  // empty when borrowed
  const CheckpointSet* checkpoints_ = &owned_checkpoints_;
  VenueId bound_venue_id_ = 0;
};

}  // namespace itspq

#endif  // ITSPQ_QUERY_ROUTER_H_
