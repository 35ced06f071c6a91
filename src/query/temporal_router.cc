// TemporalRouter: the five strategies of paper Alg. 1 as one search
// kernel, Search<Validity>(…, Goal&), instantiated per TV_Check policy
// and per query goal. The policy decides whether a door may be passed
// at a projected arrival; the goal decides what the search looks for
// and when it may stop. Distances and projected arrivals use the same
// arithmetic in every instantiation — `top_dist + weight`, then
// `dep + nd * kInvWalkSpeedMps` — so the property suites can pin the
// output bit-identically to brute-force oracles.

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "common/memory_tracker.h"
#include "itgraph/csr_adjacency.h"
#include "itgraph/door_search.h"
#include "query/reconstruct.h"
#include "query/scratch.h"
#include "query/strategies.h"

namespace itspq {

namespace {

using internal::kInfDistance;
using internal::SearchScratch;

// Estimated bytes of one touched door label (distance + parent + flags).
constexpr size_t kLabelBytes =
    sizeof(double) + sizeof(DoorId) + 2 * sizeof(uint8_t);

// Reduced-graph plumbing shared by the snapshot policies; see
// SearchScratch for what each keeps resident. Constructing one opens a
// query's snapshot state; destroying it runs the release epilogue.
class SnapshotSource {
 public:
  // `use_cache` reads the shared store through per-interval pins.
  // Otherwise snapshots are rebuilt from G0: every interval this query
  // visits is kept when `keep_visited` (ITG/A+), else one resident mask.
  SnapshotSource(const ItGraph& graph, const CheckpointSet& cps,
                 const SnapshotStore& store, bool use_cache,
                 bool keep_visited, SearchScratch& s, SearchStats& stats,
                 MemoryTracker& memory)
      : graph_(graph), cps_(cps), store_(store), use_cache_(use_cache),
        keep_visited_(keep_visited), s_(s), stats_(stats), memory_(memory) {
    // The resident mask survives from the previous Route() on this
    // context — valid only if it was built by this router epoch's store
    // (ids are process-unique).
    if (s.resident_store_id != store.id()) {
      s.resident.reset();
      s.resident_store_id = store.id();
    }
    if (s.resident.has_value()) memory.Add(s.resident->MemoryUsage());
    if (!use_cache && keep_visited) {
      s.visited_intervals.assign(cps.NumIntervals(), std::nullopt);
    }
    // A batch with retained pins reuses the previous query's pin vector
    // when it came from this router's store; anything else (first
    // query, another shard's store, an epoch swap that republished the
    // router) starts from empty pins.
    if (use_cache && (s.pinned_store_id != store.id() ||
                      s.pinned.size() != cps.NumIntervals())) {
      s.pinned.assign(cps.NumIntervals(), nullptr);
      s.pinned_store_id = store.id();
    }
  }

  // Release the per-query snapshots before returning so a long-lived
  // context doesn't pin door masks it will never reuse (or keep the
  // store from reclaiming evicted ones). The scratch-owned resident
  // mask is kept warm instead — it pins nothing, costs one mask of
  // memory, and spares the next same-interval query a full rebuild.
  // RouteBatch keeps the pins alive across its coalesced batch via
  // retain_pins and releases them itself after the last query.
  ~SnapshotSource() {
    s_.visited_intervals.clear();
    if (!s_.retain_pins) s_.ReleasePins();
  }

  SnapshotSource(const SnapshotSource&) = delete;
  SnapshotSource& operator=(const SnapshotSource&) = delete;

  const CheckpointSet& checkpoints() const { return cps_; }

  const GraphSnapshot& Get(size_t interval) {
    if (use_cache_) {
      std::shared_ptr<const GraphSnapshot>& pin = s_.pinned[interval];
      if (pin == nullptr) {
        bool built_now = false;
        pin = store_.Get(interval, &built_now);
        if (built_now) ++stats_.graph_updates;
      }
      return *pin;
    }
    std::optional<GraphSnapshot>& slot =
        keep_visited_ ? s_.visited_intervals[interval] : s_.resident;
    if (!slot.has_value() || slot->interval_index != interval) {
      if (slot.has_value()) memory_.Release(slot->MemoryUsage());
      slot = BuildSnapshot(graph_, cps_, interval);
      ++stats_.graph_updates;
      memory_.Add(slot->MemoryUsage());
    }
    return *slot;
  }

 private:
  const ItGraph& graph_;
  const CheckpointSet& cps_;
  const SnapshotStore& store_;
  const bool use_cache_;
  const bool keep_visited_;
  SearchScratch& s_;
  SearchStats& stats_;
  MemoryTracker& memory_;
};

// The snapshot of the checkpoint interval holding a moving time of day.
// The interval's bounds are cached so the steady state is one wrap
// branch and two compares per probe instead of an fmod plus a binary
// search; IntervalIndexOf only reruns on an actual crossing.
class IntervalCursor {
 public:
  explicit IntervalCursor(SnapshotSource& source) : source_(&source) {}

  const GraphSnapshot& At(double abs_seconds) {
    const double tod = (abs_seconds >= 0 && abs_seconds < kSecondsPerDay)
                           ? abs_seconds
                           : WrapTimeOfDay(abs_seconds);
    if (tod < lo_ || tod >= hi_) {
      const CheckpointSet& cps = source_->checkpoints();
      const size_t interval = cps.IntervalIndexOf(tod);
      snapshot_ = &source_->Get(interval);
      lo_ = cps.IntervalStart(interval);
      hi_ = cps.IntervalEnd(interval);
    }
    return *snapshot_;
  }

  const GraphSnapshot& current() const { return *snapshot_; }

 private:
  SnapshotSource* source_;
  const GraphSnapshot* snapshot_ = nullptr;
  double lo_ = 0.0, hi_ = -1.0;  // empty: [0, -1)
};

// TV_Check policies. Usable(door, arrival) gates each relaxation;
// OnSettle(arrival) sees each settled label's projected arrival. The
// traits fix at compile time whether the search honours
// partition-visited pruning, may run A*, and may take Dial's buckets.

// ITG/S.
struct AtiAtArrival {
  static constexpr bool kHonoursPruning = true, kMayUseAStar = true,
                        kMayUseBuckets = true;
  const ItGraph& graph;
  bool Usable(DoorId door, double arrival) const {
    return graph.AtiContainsTimeOfDay(door, arrival);
  }
  void OnSettle(double) {}
};

// ITG/A: the frontier snapshot, refreshed when the popped label's
// projected arrival crosses a checkpoint. Never A* or buckets: its
// published semantics advance the frontier snapshot in settle order,
// which only a distance-sorted frontier reproduces.
struct FrontierSnapshot {
  static constexpr bool kHonoursPruning = true, kMayUseAStar = false,
                        kMayUseBuckets = false;
  FrontierSnapshot(SnapshotSource& source, double dep) : cursor(source) {
    cursor.At(dep);
  }
  bool Usable(DoorId door, double) const {
    return cursor.current().IsOpen(door);
  }
  void OnSettle(double arrival) { cursor.At(arrival); }
  IntervalCursor cursor;
};

// ITG/A+: the snapshot of each relaxation's arrival interval.
struct ArrivalSnapshot {
  static constexpr bool kHonoursPruning = true, kMayUseAStar = true,
                        kMayUseBuckets = true;
  bool Usable(DoorId door, double arrival) {
    return cursor.At(arrival).IsOpen(door);
  }
  void OnSettle(double) {}
  IntervalCursor cursor;
};

// SNAP and NTV are conventional door-graph Dijkstras: they ignore
// pruning and keep DoorDijkstra's plain settle order, so their answers
// are bit-identical to DoorDijkstra + BestCompletion by construction.

// SNAP: the mask of the departure's interval, whatever the arrival.
struct DepartureMask {
  static constexpr bool kHonoursPruning = false, kMayUseAStar = false,
                        kMayUseBuckets = true;
  bool Usable(DoorId door, double) const { return snapshot.IsOpen(door); }
  void OnSettle(double) {}
  const GraphSnapshot& snapshot;
};

// NTV.
struct AlwaysOpen {
  static constexpr bool kHonoursPruning = false, kMayUseAStar = false,
                        kMayUseBuckets = true;
  bool Usable(DoorId, double) const { return true; }
  void OnSettle(double) {}
};

// Goals. Begin marks what the goal looks for in the fresh scratch;
// Admit bounds (and, under A*, keys) each label; AtPop decides whether
// the search goes on; Settle sees every settled door. Only a
// kSingleTarget goal may use Alg. 1's partition-visited pruning or A*.
// The sweeps ignore QueryOptions::partition_visited_pruning: the
// pruning expands each partition through one entry door, which is
// sound for a single target but hides every other door of the
// partition from an enumeration, and makes per-door distances
// settle-order dependent.
enum class PopAction { kSettle, kSkip, kStop };

// Point-to-point: the cheapest completion through a target-partition
// door, or the direct in-partition walk `best_total` starts at.
struct PointGoal {
  static constexpr bool kSingleTarget = true, kNeedsSortedPops = false;

  const ItGraph& graph;
  const internal::PointAttachment& dst;
  Point2d target;
  double best_total;
  DoorId best_door = kInvalidDoor;
  bool goal_directed = false;

  void Begin(SearchScratch& s, bool directed) {
    goal_directed = directed;
    // Minimum straight-line tail from each target-partition door to pt.
    for (const auto& [door, offset] : dst.door_offsets) {
      const size_t i = static_cast<size_t>(door);
      if (offset < s.TargetOffset(i)) {
        s.target_offset[i] = offset;
        s.target_stamp[i] = s.generation;
      }
    }
  }

  // max(Chebyshev, (|dx|+|dy|)/sqrt(2)) lower-bounds the straight-line
  // distance from door i to pt within ~8% with no sqrt on the hot path.
  double RemainingLb(size_t i) const {
    const Point2d& p = graph.DoorPos(static_cast<DoorId>(i));
    const double dx = std::fabs(p.x - target.x);
    const double dy = std::fabs(p.y - target.y);
    const double cheb = dx > dy ? dx : dy;
    const double diag = (dx + dy) * 0.7071067811865475;
    return cheb > diag ? cheb : diag;
  }

  bool Admit(size_t i, double nd, double* key) const {
    // A label at or past the best known total would be discarded at
    // pop (best_total never increases), so skip the ATI/snapshot probe
    // and the queue traffic now. Cannot change the answer: any
    // completion through it costs >= nd >= the final best_total, and
    // ties never replace the incumbent.
    if (nd >= best_total) return false;
    if (goal_directed) {
      // Same discard argument with the straight-line remainder added
      // in; the surviving bound becomes the A* key.
      *key += RemainingLb(i);
      if (*key >= best_total) return false;
    }
    return true;
  }

  PopAction AtPop(double top_key, const FrontierQueue& frontier) const {
    if (top_key < best_total) return PopAction::kSettle;
    // Sorted pops (either heap keying): every completion through a
    // queued label costs at least its key (= d, or d plus an
    // admissible remainder), so nothing left can win — stop. Bucket
    // pops regress within a bucket, so stop only once the queue's
    // lower bound clears the best answer; this label alone can't help
    // (any completion through it is >= top_key), so skip it.
    return frontier.PopsSorted() || frontier.MinBound() >= best_total
               ? PopAction::kStop
               : PopAction::kSkip;
  }

  void Settle(size_t u, double dist, const SearchScratch& s) {
    const double tail = s.TargetOffset(u);
    if (tail < kInfDistance && dist + tail < best_total) {
      best_total = dist + tail;
      best_door = static_cast<DoorId>(u);
    }
  }
};

// Reachability: every door within the walking budget, collected in
// pop order.
struct BudgetGoal {
  static constexpr bool kSingleTarget = false, kNeedsSortedPops = false;

  double budget_seconds;
  double dep;
  std::vector<ReachableDoor>* out;

  void Begin(SearchScratch&, bool) {}
  // Budget prune: a label whose walk already overruns the budget can
  // never contribute a reachable door (weights are positive, so
  // anything through it is farther still).
  bool Admit(size_t, double nd, double*) const {
    return nd * kInvWalkSpeedMps <= budget_seconds;
  }
  PopAction AtPop(double, const FrontierQueue&) const {
    return PopAction::kSettle;
  }
  void Settle(size_t u, double dist, const SearchScratch&) {
    out->push_back({static_cast<DoorId>(u), dist,
                    dep + dist * kInvWalkSpeedMps});
  }
};

// k nearest facilities, collected in pop order. Once k facilities are
// settled, every facility tied with the k-th is still ahead at the same
// key, so the sweep may stop at the first strictly larger pop — which
// needs globally sorted pops. The caller's sort + truncate then applies
// the (distance, door) tie rule over the settled candidates.
struct FacilityGoal {
  static constexpr bool kSingleTarget = false, kNeedsSortedPops = true;

  const std::vector<DoorId>& facilities;
  size_t k;
  double dep;
  std::vector<ReachableDoor>* out;
  double kth_dist = kInfDistance;

  // Marks the requested doors by reusing the target tail stamps (a
  // sweep has no target, so the array is free). A door is a facility
  // iff its target stamp is this generation; duplicate ids in the
  // request collapse on the stamp.
  void Begin(SearchScratch& s, bool) {
    for (DoorId door : facilities) {
      const size_t i = static_cast<size_t>(door);
      s.target_offset[i] = 0;
      s.target_stamp[i] = s.generation;
    }
  }
  bool Admit(size_t, double, double*) const { return true; }
  PopAction AtPop(double top_key, const FrontierQueue&) const {
    return top_key > kth_dist ? PopAction::kStop : PopAction::kSettle;
  }
  void Settle(size_t u, double dist, const SearchScratch& s) {
    if (s.target_stamp[u] != s.generation) return;
    out->push_back({static_cast<DoorId>(u), dist,
                    dep + dist * kInvWalkSpeedMps});
    if (out->size() == k) kth_dist = dist;
  }
};

// The temporal door-graph Dijkstra of paper Alg. 1 from `src`, door
// usability per `validity`, stopping and collecting per `goal`.
template <typename Validity, typename Goal>
void Search(const ItGraph& graph, const QueryRequest& request,
            const internal::PointAttachment& src, Validity& validity,
            Goal& goal, SearchScratch& s, SearchStats& stats,
            MemoryTracker& memory) {
  const double dep = request.departure.seconds();
  const bool prune = Validity::kHonoursPruning && Goal::kSingleTarget &&
                     request.options.partition_visited_pruning;

  // Goal-directed A* (exact mode only): every completion from door u is
  // a chain of exact 2D Euclidean edge weights (the distance matrix)
  // ending in a Euclidean tail to pt, so by the triangle inequality it
  // costs at least the straight-line distance from u to pt. Gated off
  // under Alg. 1's partition-visited pruning: the pruned answer depends
  // on which door first expands each partition, i.e. on settle order,
  // and A* reordering changes those answers — measurably breaking the
  // published ITG/A-vs-ITG/S agreement rate (the paper's pruned mode
  // must keep plain Dijkstra order). Without pruning the reorder is
  // provably safe: the bound is consistent (a norm bounded by the
  // Euclidean norm, so lb(u) - lb(v) <= w(u, v)) and relaxation
  // admissibility depends only on the candidate distance, so
  // settle-once A* computes the same distances as Dijkstra.
  const bool goal_directed =
      Validity::kMayUseAStar && Goal::kSingleTarget && !prune;

  // Frontier selection. Goal-directed searches run A* on the 4-ary
  // heap — f-keys rule out Dial's bucket queue, whose exactness needs
  // per-pop key increments of at least the bucket width, and an A*
  // edge's increment w + lb(v) - lb(u) can be arbitrarily close to
  // zero. Policies and goals that need settle-ordered pops stay on the
  // sorted heap too; everything else takes Dial's buckets when every
  // edge weight covers the bucket width.
  const CsrAdjacency& adj = graph.adjacency();
  const bool bucketed = Validity::kMayUseBuckets && !Goal::kNeedsSortedPops &&
                        !goal_directed && adj.BucketEligible();

  s.PrepareSearch(graph.NumDoors(), graph.venue().NumPartitions());
  goal.Begin(s, goal_directed);
  if (bucketed) {
    s.frontier.ResetBuckets(adj.min_edge_weight);
  } else {
    s.frontier.ResetHeap(FrontierQueue::Kind::kFourAryHeap);
  }

  auto relax = [&](DoorId door, double nd, DoorId from) {
    const size_t i = static_cast<size_t>(door);
    if (nd >= s.Dist(i)) return;
    double key = nd;
    if (!goal.Admit(i, nd, &key)) return;
    if (!validity.Usable(door, dep + nd * kInvWalkSpeedMps)) return;
    if (s.label_stamp[i] != s.generation) memory.Add(kLabelBytes);
    s.dist[i] = nd;
    s.parent[i] = from;
    s.label_stamp[i] = s.generation;
    s.frontier.Push(key, static_cast<uint32_t>(i));
    memory.Add(FrontierQueue::kEntryBytes);
  };

  for (const auto& [door, offset] : src.door_offsets) {
    relax(door, offset, kInvalidDoor);
  }

  double top_key;
  uint32_t top_id;
  while (s.frontier.Pop(&top_key, &top_id)) {
    memory.Release(FrontierQueue::kEntryBytes);
    const size_t u = top_id;
    if (s.Settled(u)) continue;
    const PopAction action = goal.AtPop(top_key, s.frontier);
    if (action == PopAction::kStop) break;
    if (action == PopAction::kSkip) continue;
    // Under A* keys the popped key is d + remaining_lb(u); the door's
    // own distance is read back from the label (the first unsettled
    // pop of u carries its minimal key, so dist[u] is exactly the d
    // that key was pushed with).
    const double top_dist = goal_directed ? s.dist[u] : top_key;
    s.settled_stamp[u] = s.generation;
    ++stats.doors_popped;
    validity.OnSettle(dep + top_dist * kInvWalkSpeedMps);
    goal.Settle(u, top_dist, s);

    // CSR relaxation: door u owns segments 2u and 2u+1, one per
    // partition, each a contiguous run of (neighbour id, weight).
    for (size_t seg = 2 * u; seg < 2 * u + 2; ++seg) {
      if (prune) {
        const size_t p = static_cast<size_t>(adj.seg_partition[seg]);
        if (s.partition_stamp[p] == s.generation) continue;
        s.partition_stamp[p] = s.generation;
      }
      const uint32_t begin = adj.seg_offsets[seg];
      const uint32_t end = adj.seg_offsets[seg + 1];
      stats.edges_scanned += end - begin;
      for (uint32_t k = begin; k < end; ++k) {
        const size_t next = adj.neighbor_ids[k];
        if (s.Settled(next)) continue;
        relax(static_cast<DoorId>(next), top_dist + adj.neighbor_weights[k],
              static_cast<DoorId>(u));
      }
    }
  }
}

}  // namespace

const char* TvCheckName(TvCheck check) {
  static const char* const kNames[] = {"itg-s", "itg-a", "itg-a+", "snap",
                                       "ntv"};
  return kNames[static_cast<size_t>(check)];
}

StatusOr<TvCheck> ParseTvCheck(const std::string& name) {
  for (TvCheck check : kTvChecks) {
    if (name == TvCheckName(check)) return check;
  }
  return NotFoundError("unknown router '" + name + "'");
}

StatusOr<std::unique_ptr<Router>> MakeRouter(const std::string& name,
                                             const ItGraph& graph,
                                             const RouterBuildOptions& options) {
  auto check = ParseTvCheck(name);
  if (!check.ok()) return check.status();
  return std::unique_ptr<Router>(
      std::make_unique<TemporalRouter>(graph, *check, options));
}

TemporalRouter::TemporalRouter(const ItGraph& graph, TvCheck check,
                               const RouterBuildOptions& options)
    : Router(TvCheckName(check), graph,
             options.warm_start ? options.warm_start->checkpoints : nullptr),
      check_(check) {
  if (check != TvCheck::kNone) {
    snapshot_store_.emplace(graph, checkpoints(), options.snapshot_cache,
                            options.warm_start);
  }
  BindVenueId(options.bound_venue_id);
}

CacheStatsSnapshot TemporalRouter::CacheStats() const {
  return snapshot_store_ ? snapshot_store_->Stats() : CacheStatsSnapshot();
}

void TemporalRouter::SetSnapshotBudget(size_t budget_bytes) const {
  if (snapshot_store_) snapshot_store_->SetBudget(budget_bytes);
}

size_t TemporalRouter::MemoryUsage() const {
  return Router::MemoryUsage() +
         (snapshot_store_ ? snapshot_store_->MemoryUsage() : 0);
}

StatusOr<QueryResult> TemporalRouter::Route(const QueryRequest& request,
                                            QueryContext* context) const {
  Timer timer;
  const ItGraph& graph = this->graph();

  Status valid = internal::ValidateRequest(request, bound_venue_id(),
                                           graph.NumDoors());
  if (!valid.ok()) return valid;
  if (request.kind == QueryKind::kMultiStop) {
    return internal::RouteMultiStop(*this, request, context);
  }
  const bool point_to_point = request.kind == QueryKind::kPointToPoint;
  internal::PointAttachment src, dst;
  Status attached =
      internal::Attach(graph.venue(), request.source, "source", &src);
  if (attached.ok() && point_to_point) {
    attached = internal::Attach(graph.venue(), request.target, "target", &dst);
  }
  if (!attached.ok()) return attached;

  std::optional<QueryContext> local_context;
  SearchScratch& s = internal::ScratchFor(context, local_context);
  const double dep = request.departure.seconds();
  QueryResult result;
  MemoryTracker memory;

  // One dispatch per query: the goal the request's kind asks for, run
  // under the TV_Check policy `validity`.
  auto run = [&](auto&& validity) {
    if (point_to_point) {
      PointGoal goal{graph, dst, request.target.p,
                     internal::SharesPartition(src, dst)
                         ? EuclideanDistance(request.source.p,
                                             request.target.p)
                         : kInfDistance};
      Search(graph, request, src, validity, goal, s, result.stats, memory);
      if (std::isfinite(goal.best_total)) {
        result.found = true;
        result.path = internal::ReconstructPath(
            s.dist, s.parent, goal.best_door, goal.best_total, dep);
      }
      return;
    }
    if (request.kind == QueryKind::kReachability) {
      BudgetGoal goal{request.budget_seconds, dep, &result.reachable};
      Search(graph, request, src, validity, goal, s, result.stats, memory);
    } else {
      FacilityGoal goal{request.facilities, request.k, dep,
                        &result.reachable};
      Search(graph, request, src, validity, goal, s, result.stats, memory);
    }
    internal::SortReachable(&result.reachable);
    if (request.kind == QueryKind::kNearestFacility &&
        result.reachable.size() > request.k) {
      result.reachable.resize(request.k);
    }
    result.found = !result.reachable.empty();
  };

  // SNAP always reads the shared store; the ITG checkers do when the
  // request asks for it.
  std::optional<SnapshotSource> snapshots;
  if (snapshot_store_) {
    snapshots.emplace(graph, checkpoints(), *snapshot_store_,
                      check_ == TvCheck::kSnapshot ||
                          request.options.use_snapshot_cache,
                      check_ == TvCheck::kAsynchronousStrict, s, result.stats,
                      memory);
  }
  switch (check_) {
    case TvCheck::kSynchronous:
      run(AtiAtArrival{graph});
      break;
    case TvCheck::kAsynchronous:
      run(FrontierSnapshot(*snapshots, dep));
      break;
    case TvCheck::kAsynchronousStrict:
      run(ArrivalSnapshot{IntervalCursor(*snapshots)});
      break;
    case TvCheck::kSnapshot:
      run(DepartureMask{snapshots->Get(checkpoints().IntervalIndexOf(
          request.departure.TimeOfDay()))});
      break;
    case TvCheck::kNone:
      run(AlwaysOpen{});
      break;
  }
  snapshots.reset();  // the release epilogue

  result.stats.peak_memory_bytes = memory.peak();
  result.stats.search_micros = timer.ElapsedMicros();
  return result;
}

}  // namespace itspq
