#ifndef ITSPQ_TESTS_REFERENCE_SEARCH_H_
#define ITSPQ_TESTS_REFERENCE_SEARCH_H_

// Reference searches the router's kernel is pinned against, shared by
// the suites that compare answers bit for bit:
//   * DoorDijkstra: a plain (time-oblivious) Dijkstra over the door
//     graph under one static open-door mask — the reference for SNAP,
//     NTV and the workload generator's static distances;
//   * OracleSweep: a brute-force binary-heap temporal Dijkstra with one
//     door-usability rule per strategy (OracleTv) — the reference for
//     the sweep families;
//   * MakeIneligibleWorld: a mall whose zero-weight edge rules out
//     Dial's buckets, so the searches above run on the heap frontier.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/venue_gen.h"
#include "itgraph/checkpoints.h"
#include "itgraph/csr_adjacency.h"
#include "itgraph/door_mask.h"
#include "itgraph/door_search.h"
#include "itgraph/frontier_queue.h"
#include "itgraph/itgraph.h"
#include "query/router.h"
#include "venue/venue.h"

namespace itspq {

namespace reference_search_internal {

template <typename T>
T OrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

}  // namespace reference_search_internal

namespace internal {

/// Per-door labels of one Dijkstra run, generation-stamped: a label is
/// valid only when its stamp matches the run's generation, so starting
/// a new search over the same arrays costs one counter bump instead of
/// three O(doors) assigns. Read through Dist/Parent/Settled — the raw
/// vectors hold stale garbage at unstamped indices (path walks may read
/// them directly: every door on a found path was labelled this run).
struct DoorSearchResult {
  std::vector<double> dist;
  std::vector<DoorId> parent;
  /// label_stamp[i] == generation  <=>  dist/parent[i] are this run's.
  std::vector<uint32_t> label_stamp;
  /// settled_stamp[i] == generation  <=>  door i was settled this run.
  std::vector<uint32_t> settled_stamp;
  uint32_t generation = 0;
  /// The frontier, owned here so repeated runs reuse its storage.
  FrontierQueue frontier;

  double Dist(size_t i) const {
    return label_stamp[i] == generation ? dist[i] : kInfDistance;
  }
  DoorId Parent(size_t i) const {
    return label_stamp[i] == generation ? parent[i] : kInvalidDoor;
  }
  bool Settled(size_t i) const { return settled_stamp[i] == generation; }

  void Label(size_t i, double d, DoorId from) {
    dist[i] = d;
    parent[i] = from;
    label_stamp[i] = generation;
  }

  /// Opens a new run over `n` doors: O(1) generation bump, O(n) only on
  /// first use, a size change, or the (once per 2^32 runs) stamp wrap.
  void PrepareForSearch(size_t n) {
    if (dist.size() != n) {
      dist.assign(n, kInfDistance);
      parent.assign(n, kInvalidDoor);
      label_stamp.assign(n, 0);
      settled_stamp.assign(n, 0);
      generation = 0;
    }
    if (++generation == 0) {
      std::fill(label_stamp.begin(), label_stamp.end(), 0);
      std::fill(settled_stamp.begin(), settled_stamp.end(), 0);
      generation = 1;
    }
  }
};

/// Multi-source Dijkstra over the implicit door graph. `sources` seed
/// doors with initial offsets (e.g. the walk from a query point to each
/// door of its partition). Doors whose `open_mask` bit is clear are
/// skipped entirely; pass nullptr to treat every door as open.
inline DoorSearchResult DoorDijkstra(
    const ItGraph& graph,
    const std::vector<std::pair<DoorId, double>>& sources,
    const DoorMask* open_mask) {
  DoorSearchResult out;
  const size_t n = graph.NumDoors();
  out.PrepareForSearch(n);

  const CsrAdjacency& adj = graph.adjacency();
  FrontierQueue& frontier = out.frontier;
  // Plain (time-oblivious) Dijkstra is pop-order independent within a
  // bucket when every edge weight covers the bucket width, so Dial's
  // queue is exact here whenever the graph's weights allow it.
  if (adj.BucketEligible()) {
    frontier.ResetBuckets(adj.min_edge_weight);
  } else {
    frontier.ResetHeap();
  }

  for (const auto& [door, offset] : sources) {
    const size_t d = static_cast<size_t>(door);
    if (open_mask != nullptr && !open_mask->Test(door)) continue;
    if (offset < out.Dist(d)) {
      out.Label(d, offset, kInvalidDoor);
      frontier.Push(offset, static_cast<uint32_t>(door));
    }
  }

  double top_dist;
  uint32_t top_id;
  while (frontier.Pop(&top_dist, &top_id)) {
    const size_t u = top_id;
    if (out.Settled(u)) continue;
    out.settled_stamp[u] = out.generation;

    // The doors of u's two partitions, u itself skipped as settled.
    const Point2d at = graph.DoorPos(static_cast<DoorId>(u));
    for (PartitionId side : graph.DoorPartitions(static_cast<DoorId>(u))) {
      const CsrAdjacency::DoorList doors = adj.DoorsOf(graph.venue(), side);
      for (size_t k = 0; k < doors.size; ++k) {
        if (open_mask != nullptr && !open_mask->Test(doors.ids[k])) continue;
        const auto vi = static_cast<size_t>(doors.ids[k]);
        if (out.Settled(vi)) continue;
        const double nd = top_dist + EuclideanDistance(at, doors.positions[k]);
        if (nd < out.Dist(vi)) {
          out.Label(vi, nd, static_cast<DoorId>(u));
          frontier.Push(nd, static_cast<uint32_t>(vi));
        }
      }
    }
  }
  return out;
}

}  // namespace internal

struct FamilyWorld {
  std::unique_ptr<Venue> venue;
  std::unique_ptr<ItGraph> graph;
  std::unique_ptr<CheckpointSet> checkpoints;
};

// The compact single-floor mall the cross-strategy suite uses: big
// enough for multi-door sweeps, small enough for TSan.
inline Venue MakeMall(uint64_t seed) {
  using reference_search_internal::OrDie;
  MallConfig mall_config = MallConfig::Paper();
  mall_config.floors = 1;
  mall_config.shop_rows = 3;
  mall_config.shops_per_row = 20;
  mall_config.seed = seed;
  Venue mall = OrDie(GenerateMall(mall_config), "GenerateMall");

  AtiGenConfig ati_config;
  ati_config.checkpoint_count = 6;
  ati_config.seed = seed + 1;
  return OrDie(AssignTemporalVariations(mall, ati_config),
               "AssignTemporalVariations");
}

inline FamilyWorld MakeWorldFrom(Venue venue) {
  FamilyWorld world;
  world.venue = std::make_unique<Venue>(std::move(venue));
  world.graph = std::make_unique<ItGraph>(reference_search_internal::OrDie(
      ItGraph::Build(*world.venue), "ItGraph::Build"));
  world.checkpoints =
      std::make_unique<CheckpointSet>(CheckpointSet::FromGraph(*world.graph));
  return world;
}

// MakeMall's mall plus a twin of door 0: same position, partitions
// and ATI. The twins are joined by a zero-weight edge, which rules out
// Dial's buckets, so every search falls back to the 4-ary heap.
inline FamilyWorld MakeIneligibleWorld(uint64_t seed) {
  const Venue mall = MakeMall(seed);
  const Door& door = mall.door(DoorId{0});
  Venue::Builder builder = Venue::Builder::FromVenue(mall);
  const DoorId twin = builder.AddDoor(door.pos, door.floor,
                                      door.partitions[0], door.partitions[1]);
  const Span<TimeInterval> ati = mall.DoorAti(DoorId{0});
  EXPECT_TRUE(builder.SetDoorAti(twin, {ati.begin(), ati.end()}).ok());
  FamilyWorld world = MakeWorldFrom(reference_search_internal::OrDie(
      std::move(builder).Build(), "Venue::Builder::Build"));
  EXPECT_EQ(world.graph->adjacency().min_edge_weight, 0.0) << "seed " << seed;
  EXPECT_FALSE(world.graph->adjacency().BucketEligible()) << "seed " << seed;
  return world;
}

// How the oracle decides whether a relaxation may pass a door — one
// case per strategy's documented temporal-validity semantics.
enum class OracleTv { kSync, kAsync, kStrict, kSnap, kNtv };

inline OracleTv OracleModeFor(const std::string& name) {
  if (name == "itg-s") return OracleTv::kSync;
  if (name == "itg-a") return OracleTv::kAsync;
  if (name == "itg-a+") return OracleTv::kStrict;
  if (name == "snap") return OracleTv::kSnap;
  return OracleTv::kNtv;
}

// Brute-force sweep: lazy-deletion binary-heap Dijkstra over the whole
// door graph, gated per mode. Returns the family's deterministic
// output — (distance, door)-sorted reachable set, truncated to k for
// kNearestFacility.
inline std::vector<ReachableDoor> OracleSweep(const ItGraph& graph,
                                              const CheckpointSet& cps,
                                              const QueryRequest& request,
                                              OracleTv mode) {
  auto attached = internal::AttachPoint(graph.venue(), request.source);
  if (!attached.ok()) {
    ADD_FAILURE() << "oracle source attach: "
                  << attached.status().ToString();
    return {};
  }
  const double dep = request.departure.seconds();
  const bool reachability = request.kind == QueryKind::kReachability;
  const size_t n = graph.NumDoors();

  std::vector<double> dist(n, internal::kInfDistance);
  std::vector<char> settled(n, 0);

  // ITG/A's frontier snapshot: door states frozen to the interval of
  // the last popped arrival. Any probe time inside the interval works —
  // checkpoints cover every ATI boundary, so state is constant there.
  double frontier_lo = 0, frontier_hi = -1, frontier_probe = 0;
  auto refresh_frontier = [&](double arrival_abs) {
    const double tod = WrapTimeOfDay(arrival_abs);
    if (tod < frontier_lo || tod >= frontier_hi) {
      const size_t interval = cps.IntervalIndexOf(tod);
      frontier_lo = cps.IntervalStart(interval);
      frontier_hi = cps.IntervalEnd(interval);
      frontier_probe = tod;
    }
  };
  if (mode == OracleTv::kAsync) refresh_frontier(dep);

  auto usable = [&](DoorId door, double arrival_abs) {
    switch (mode) {
      case OracleTv::kSync:
      case OracleTv::kStrict:
        // ITG/A+'s arrival-interval snapshot answers exactly what the
        // ATI answers at the arrival (state is interval-constant).
        return graph.Ati(door).ContainsTimeOfDay(arrival_abs);
      case OracleTv::kAsync:
        return graph.Ati(door).ContainsTimeOfDay(frontier_probe);
      case OracleTv::kSnap:
        return graph.Ati(door).ContainsTimeOfDay(dep);
      case OracleTv::kNtv:
        return true;
    }
    return false;
  };

  using Entry = std::pair<double, size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  auto relax = [&](DoorId door, double nd) {
    const size_t i = static_cast<size_t>(door);
    if (nd >= dist[i]) return;
    if (reachability && nd * kInvWalkSpeedMps > request.budget_seconds) {
      return;
    }
    if (!usable(door, dep + nd * kInvWalkSpeedMps)) return;
    dist[i] = nd;
    queue.push({nd, i});
  };
  for (const auto& [door, offset] : attached->door_offsets) {
    relax(door, offset);
  }

  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (settled[u]) continue;
    settled[u] = 1;
    if (mode == OracleTv::kAsync) {
      refresh_frontier(dep + d * kInvWalkSpeedMps);
    }
    const DoorId from = static_cast<DoorId>(u);
    for (PartitionId p : graph.DoorPartitions(from)) {
      for (DoorId next : graph.venue().DoorsOf(p)) {
        if (settled[static_cast<size_t>(next)]) continue;
        relax(next, d + EuclideanDistance(graph.DoorPos(from),
                                          graph.DoorPos(next)));
      }
    }
  }

  std::vector<char> is_facility(n, 0);
  if (!reachability) {
    for (DoorId door : request.facilities) {
      is_facility[static_cast<size_t>(door)] = 1;
    }
  }
  std::vector<ReachableDoor> reachable;
  for (size_t i = 0; i < n; ++i) {
    if (!settled[i]) continue;
    if (!reachability && !is_facility[i]) continue;
    ReachableDoor entry;
    entry.door = static_cast<DoorId>(i);
    entry.distance_m = dist[i];
    entry.arrival_seconds = dep + dist[i] * kInvWalkSpeedMps;
    reachable.push_back(entry);
  }
  std::sort(reachable.begin(), reachable.end(),
            [](const ReachableDoor& a, const ReachableDoor& b) {
              if (a.distance_m != b.distance_m) {
                return a.distance_m < b.distance_m;
              }
              return a.door < b.door;
            });
  if (!reachability && reachable.size() > request.k) {
    reachable.resize(request.k);
  }
  return reachable;
}

}  // namespace itspq

#endif  // ITSPQ_TESTS_REFERENCE_SEARCH_H_
