#include "itgraph/graph_update.h"

#include <cassert>
#include <cstdlib>

namespace itspq {

GraphSnapshot BuildSnapshot(const ItGraph& graph, const CheckpointSet& cps,
                            size_t interval_index) {
  GraphSnapshot snap;
  snap.interval_index = interval_index;
  const size_t n = graph.NumDoors();
  snap.open = DoorMask(n);
  const double probe = cps.IntervalMidpoint(interval_index);
  // Membership via the graph's flat ATI rows: one linear pass over two
  // contiguous pools.
  for (size_t d = 0; d < n; ++d) {
    if (graph.Ati(static_cast<DoorId>(d)).ContainsTimeOfDay(probe)) {
      snap.open.Set(static_cast<DoorId>(d));
      ++snap.open_door_count;
    }
  }
  return snap;
}

GraphSnapshot BuildSnapshotDelta(const ItGraph& graph,
                                 const CheckpointSet& cps,
                                 const BoundaryFlipIndex& flips,
                                 const GraphSnapshot& from,
                                 size_t to_interval,
                                 size_t* doors_touched) {
  const size_t from_interval = from.interval_index;
  assert(to_interval < cps.NumIntervals());
  // The flip list is only exact across one shared boundary; for any
  // other (from, to) pair the delta would silently produce a wrong
  // mask, so guard unconditionally and fall back to the from-G0 build.
  if (from_interval + 1 != to_interval && to_interval + 1 != from_interval) {
    assert(false && "delta source must be an adjacent interval");
    if (doors_touched != nullptr) *doors_touched = graph.NumDoors();
    return BuildSnapshot(graph, cps, to_interval);
  }
  // Boundary b separates intervals b and b+1, so the shared boundary of
  // two adjacent intervals is the smaller index.
  const size_t boundary =
      from_interval < to_interval ? from_interval : to_interval;

  GraphSnapshot snap;
  snap.interval_index = to_interval;
  snap.open = from.open;
  snap.open_door_count = from.open_door_count;
  for (const DoorId door : flips[boundary]) {
    if (snap.open.Flip(door)) {
      ++snap.open_door_count;
    } else {
      --snap.open_door_count;
    }
  }
  if (doors_touched != nullptr) *doors_touched = flips.NumFlips(boundary);
  return snap;
}

}  // namespace itspq
