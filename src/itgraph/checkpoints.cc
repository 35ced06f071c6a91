#include "itgraph/checkpoints.h"

#include <algorithm>
#include <string>
#include <utility>

#include "itgraph/graph_update.h"
#include "itgraph/itgraph.h"

namespace itspq {

StatusOr<CheckpointSet> CheckpointSet::FromTimes(std::vector<double> times) {
  for (double t : times) {
    if (t <= 0 || t >= kSecondsPerDay) {
      return InvalidArgumentError("checkpoint outside (0, 86400): " +
                                  std::to_string(t));
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  CheckpointSet set;
  set.times_ = std::move(times);
  return set;
}

CheckpointSet CheckpointSet::FromGraph(const ItGraph& graph) {
  std::vector<double> times;
  const size_t n = graph.NumDoors();
  for (size_t d = 0; d < n; ++d) {
    const std::vector<double> boundaries =
        graph.Ati(static_cast<DoorId>(d)).InteriorBoundaries();
    times.insert(times.end(), boundaries.begin(), boundaries.end());
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  CheckpointSet set;
  set.times_ = std::move(times);
  return set;
}

BoundaryFlipIndex BoundaryFlipIndex::Build(const ItGraph& graph,
                                           const CheckpointSet& cps) {
  BoundaryFlipIndex index;
  const size_t boundaries = cps.NumCheckpoints();
  index.offsets_.assign(boundaries + 1, 0);

  // One from-G0 mask per interval — a single ATI probe per (door,
  // interval) — then each boundary's flip list is the XOR diff of its
  // two masks, emitted in ascending door order. Paid once per router
  // instead of per query.
  GraphSnapshot prev = BuildSnapshot(graph, cps, 0);
  for (size_t b = 0; b < boundaries; ++b) {
    GraphSnapshot next = BuildSnapshot(graph, cps, b + 1);
    prev.open.ForEachDifference(
        next.open, [&index](DoorId door) { index.doors_.push_back(door); });
    index.offsets_[b + 1] = index.doors_.size();
    prev = std::move(next);
  }
  return index;
}

BoundaryFlipIndex BoundaryFlipIndex::FromLists(
    const std::vector<std::vector<DoorId>>& per_boundary) {
  BoundaryFlipIndex index;
  index.offsets_.assign(per_boundary.size() + 1, 0);
  size_t total = 0;
  for (const auto& list : per_boundary) total += list.size();
  index.doors_.reserve(total);
  for (size_t b = 0; b < per_boundary.size(); ++b) {
    index.doors_.insert(index.doors_.end(), per_boundary[b].begin(),
                        per_boundary[b].end());
    index.offsets_[b + 1] = index.doors_.size();
  }
  return index;
}

void BuildBoundaryLedger(const ItGraph& graph, std::vector<double>* times,
                         std::vector<std::vector<DoorId>>* doors) {
  // Collect (time, door) contributions of every door, then group by
  // time. Sorting on the pair key leaves each per-boundary door list
  // ascending — BoundaryFlipIndex::Build's emission order.
  std::vector<std::pair<double, DoorId>> contributions;
  const size_t n = graph.NumDoors();
  for (size_t d = 0; d < n; ++d) {
    for (double t : graph.Ati(static_cast<DoorId>(d)).InteriorBoundaries()) {
      contributions.emplace_back(t, static_cast<DoorId>(d));
    }
  }
  std::sort(contributions.begin(), contributions.end());
  times->clear();
  doors->clear();
  for (const auto& [t, d] : contributions) {
    if (times->empty() || times->back() != t) {
      times->push_back(t);
      doors->emplace_back();
    }
    doors->back().push_back(d);
  }
}

}  // namespace itspq
