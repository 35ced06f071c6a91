#ifndef ITSPQ_SRC_QUERY_SCRATCH_H_
#define ITSPQ_SRC_QUERY_SCRATCH_H_

// Private to src/query: the mutable search state behind QueryContext.
// One SearchScratch is everything any strategy mutates during a
// Route() call; the vectors keep their capacity across queries, which
// is what makes context reuse worthwhile.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "itgraph/door_search.h"
#include "itgraph/frontier_queue.h"
#include "itgraph/graph_update.h"
#include "query/router.h"
#include "venue/geometry.h"

namespace itspq {
namespace internal {

struct SearchScratch {
  // Search state (paper Alg. 1), generation-stamped: an entry is
  // valid only when its stamp equals `generation`, so opening a query
  // costs one counter bump instead of the five O(doors)+O(partitions)
  // assigns the arrays used to take. dist/parent share one stamp (they
  // are always written together); settled and the per-door target tail
  // each get their own; partition_stamp doubles as the visited-pruning
  // boolean (stamped == expanded this query).
  std::vector<double> dist;
  std::vector<DoorId> parent;
  std::vector<double> target_offset;
  std::vector<uint32_t> label_stamp;
  std::vector<uint32_t> settled_stamp;
  std::vector<uint32_t> target_stamp;
  std::vector<uint32_t> partition_stamp;
  uint32_t generation = 0;
  FrontierQueue frontier;

  // Reduced-graph scratch for the asynchronous checkers when the
  // shared snapshot cache is off: ITG/A keeps exactly one resident
  // snapshot (Alg. 3 as published); ITG/A+ keeps the intervals visited
  // this query so per-relaxation interval hops don't thrash rebuilds.
  // The resident mask stays warm across Route() calls — a workload
  // that re-queries the same interval skips the O(doors) rebuild
  // entirely. `resident_store_id` records which router epoch built it
  // (SnapshotStore ids are process-unique), so a context moved to
  // another router — or kept across an epoch swap — can never serve a
  // mask built from a different graph.
  std::optional<GraphSnapshot> resident;
  uint64_t resident_store_id = 0;
  std::vector<std::optional<GraphSnapshot>> visited_intervals;

  // Shared-store path: per-interval pins of SnapshotStore snapshots.
  // Pinning once per (query, interval) keeps the store's mutex off the
  // per-relaxation path and guarantees an evicted interval's mask stays
  // valid until the query completes. Released at the end of Route().
  std::vector<std::shared_ptr<const GraphSnapshot>> pinned;

  double Dist(size_t i) const {
    return label_stamp[i] == generation ? dist[i] : kInfDistance;
  }
  double TargetOffset(size_t i) const {
    return target_stamp[i] == generation ? target_offset[i] : kInfDistance;
  }
  bool Settled(size_t i) const { return settled_stamp[i] == generation; }

  /// Opens a new search: O(1) except on first use, a venue-size
  /// change, or the once-per-2^32-queries stamp wrap.
  void PrepareSearch(size_t num_doors, size_t num_partitions) {
    if (dist.size() != num_doors) {
      dist.assign(num_doors, kInfDistance);
      parent.assign(num_doors, kInvalidDoor);
      target_offset.assign(num_doors, kInfDistance);
      label_stamp.assign(num_doors, 0);
      settled_stamp.assign(num_doors, 0);
      target_stamp.assign(num_doors, 0);
      // Restarting the generation at 1 makes every stamp array stale,
      // including a partition array whose size did not change.
      std::fill(partition_stamp.begin(), partition_stamp.end(), 0);
      generation = 0;
    }
    if (partition_stamp.size() != num_partitions) {
      partition_stamp.assign(num_partitions, 0);
      // The door stamps survive a partition resize only because the
      // generation keeps counting; nothing to clear here.
    }
    if (++generation == 0) {
      std::fill(label_stamp.begin(), label_stamp.end(), 0);
      std::fill(settled_stamp.begin(), settled_stamp.end(), 0);
      std::fill(target_stamp.begin(), target_stamp.end(), 0);
      std::fill(partition_stamp.begin(), partition_stamp.end(), 0);
      generation = 1;
    }
  }
};

/// Shared Route() prologue: the request-validation contract every
/// strategy enforces before touching any search state (the same checks
/// guard the wire decode, so a hostile frame and a local call fail
/// identically). kInvalidArgument on:
///   - a non-finite departure (NaN used to flow into WrapTimeOfDay and
///     surface as a silent found == false);
///   - a non-finite source, target or waypoint coordinate (it reached
///     the point locator's float-to-int cast);
///   - a non-zero venue_id naming a venue other than the router's bound
///     one (used to be silently answered by the wrong venue);
///   - per-family parameter violations (non-finite/negative budget,
///     k == 0, empty or out-of-range facilities, empty waypoints).
inline Status ValidateRequest(const QueryRequest& request,
                              VenueId bound_venue_id, size_t num_doors) {
  if (!std::isfinite(request.departure.seconds())) {
    return InvalidArgumentError(
        "departure must be a finite time (NaN/inf rejected)");
  }
  const auto finite = [](const IndoorPoint& p) {
    return std::isfinite(p.p.x) && std::isfinite(p.p.y);
  };
  if (!finite(request.source) || !finite(request.target) ||
      !std::all_of(request.waypoints.begin(), request.waypoints.end(),
                   finite)) {
    return InvalidArgumentError(
        "source, target and waypoint coordinates must be finite "
        "(NaN/inf rejected)");
  }
  if (request.venue_id != 0 && request.venue_id != bound_venue_id) {
    return InvalidArgumentError(
        "request venue_id " + std::to_string(request.venue_id) +
        " does not match this router's bound venue " +
        std::to_string(bound_venue_id));
  }
  switch (request.kind) {
    case QueryKind::kPointToPoint:
      return Status::Ok();
    case QueryKind::kReachability:
      if (!std::isfinite(request.budget_seconds) ||
          request.budget_seconds < 0) {
        return InvalidArgumentError(
            "reachability budget_seconds must be finite and >= 0");
      }
      return Status::Ok();
    case QueryKind::kNearestFacility:
      if (request.k == 0) {
        return InvalidArgumentError("nearest-facility k must be >= 1");
      }
      if (request.facilities.empty()) {
        return InvalidArgumentError(
            "nearest-facility request needs at least one facility door");
      }
      for (DoorId d : request.facilities) {
        if (d < 0 || static_cast<size_t>(d) >= num_doors) {
          return InvalidArgumentError(
              "facility door " + std::to_string(d) +
              " out of range (venue has " + std::to_string(num_doors) +
              " doors)");
        }
      }
      return Status::Ok();
    case QueryKind::kMultiStop:
      if (request.waypoints.empty()) {
        return InvalidArgumentError(
            "multi-stop request needs at least one waypoint");
      }
      return Status::Ok();
  }
  return InvalidArgumentError(
      "unknown query kind " +
      std::to_string(static_cast<int>(request.kind)));
}

/// The deterministic output contract of the sweep families, shared with
/// the brute-force oracles: (distance, door id) ascending, so equal
/// distances tie-break on the stable door id and two correct
/// implementations agree element for element.
inline void SortReachable(std::vector<ReachableDoor>* doors) {
  std::sort(doors->begin(), doors->end(),
            [](const ReachableDoor& a, const ReachableDoor& b) {
              if (a.distance_m != b.distance_m) {
                return a.distance_m < b.distance_m;
              }
              return a.door < b.door;
            });
}

/// The kMultiStop driver shared by every strategy: chains point-to-point
/// legs source -> waypoints... -> target through the strategy's own
/// Route(), each leg departing at the previous leg's projected arrival
/// (dep + length * kInvWalkSpeedMps — the same multiplication as the
/// search relaxation, so chained arrivals stay bit-identical to a
/// replay). Stops at the first leg with no valid route (found == false,
/// the routed prefix kept in `legs`); per-leg errors propagate with the
/// leg index prefixed.
inline StatusOr<QueryResult> RouteMultiStop(const Router& router,
                                            const QueryRequest& request,
                                            QueryContext* context) {
  Timer timer;
  QueryResult result;
  QueryRequest leg = request;
  leg.kind = QueryKind::kPointToPoint;
  leg.waypoints.clear();
  leg.facilities.clear();

  IndoorPoint from = request.source;
  double dep = request.departure.seconds();
  const size_t num_legs = request.waypoints.size() + 1;
  result.legs.reserve(num_legs);
  result.found = true;
  for (size_t i = 0; i < num_legs; ++i) {
    leg.source = from;
    leg.target = i < request.waypoints.size() ? request.waypoints[i]
                                              : request.target;
    leg.departure = Instant(dep);
    StatusOr<QueryResult> answer = router.Route(leg, context);
    if (!answer.ok()) {
      return Status(answer.status().code(),
                    "leg " + std::to_string(i) + ": " +
                        answer.status().message());
    }
    result.stats.doors_popped += answer->stats.doors_popped;
    result.stats.edges_scanned += answer->stats.edges_scanned;
    result.stats.graph_updates += answer->stats.graph_updates;
    result.stats.peak_memory_bytes = std::max(
        result.stats.peak_memory_bytes, answer->stats.peak_memory_bytes);
    if (!answer->found) {
      result.found = false;
      break;
    }
    dep += answer->path.length_m() * kInvWalkSpeedMps;
    from = leg.target;
    result.legs.push_back(std::move(answer->path));
  }
  result.stats.search_micros = timer.ElapsedMicros();
  return result;
}

/// Shared Route() prologue: attaches one request endpoint to the door
/// graph, prefixing errors with the endpoint's `role`.
inline Status Attach(const Venue& venue, const IndoorPoint& point,
                     const char* role, PointAttachment* out) {
  auto attached = AttachPoint(venue, point);
  if (!attached.ok()) {
    return Status(attached.status().code(),
                  std::string(role) + " " + attached.status().message());
  }
  *out = *std::move(attached);
  return Status::Ok();
}

/// Shared Route() prologue: resolves the caller's context, falling back
/// to a throwaway one in `local` for null-context convenience calls.
inline SearchScratch& ScratchFor(QueryContext* context,
                                 std::optional<QueryContext>& local) {
  if (context == nullptr) context = &local.emplace();
  return context->scratch();
}

}  // namespace internal
}  // namespace itspq

#endif  // ITSPQ_SRC_QUERY_SCRATCH_H_
