#include "itgraph/checkpoints.h"

#include <algorithm>
#include <string>
#include <utility>

#include "itgraph/graph_update.h"
#include "itgraph/itgraph.h"

namespace itspq {

namespace {

/// fn(d, t) for each AtiRow::InteriorBoundaries() t of each door d, in order.
template <typename Fn>
void ForEachInteriorBoundary(const ItGraph& graph, Fn fn) {
  for (size_t d = 0; d < graph.NumDoors(); ++d) {
    const AtiRow row = graph.Ati(static_cast<DoorId>(d));
    for (size_t i = 0; i < row.starts().size(); ++i) {
      if (row.starts()[i] > 0) fn(d, row.starts()[i]);
      if (row.ends()[i] < kSecondsPerDay) fn(d, row.ends()[i]);
    }
  }
}

/// The distinct interior ATI boundaries of `graph`, ascending. Most are
/// found in the short sorted prefix of `seen`; the rest queue behind it
/// until they outnumber it, then fold in, keeping the worst case O(P log P).
std::vector<double> DistinctInteriorBoundaries(const ItGraph& graph) {
  size_t total = 0;
  ForEachInteriorBoundary(graph, [&total](size_t, double) { ++total; });
  std::vector<double> seen;
  seen.reserve(total);
  size_t sorted = 0;
  auto fold = [&seen, &sorted] {
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    sorted = seen.size();
  };
  ForEachInteriorBoundary(graph, [&](size_t, double t) {
    if (std::binary_search(seen.begin(), seen.begin() + sorted, t)) return;
    seen.push_back(t);
    if (seen.size() > 2 * sorted + 16) fold();
  });
  fold();
  return {seen.begin(), seen.end()};
}

}  // namespace

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
  CheckpointSet set;
  set.times_ = DistinctInteriorBoundaries(graph);
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
  // Every door is filed under its times in id order, so each list comes
  // out ascending (BoundaryFlipIndex::Build's order), reserved ahead.
  *times = DistinctInteriorBoundaries(graph);
  auto slot = [times](double t) {
    return static_cast<size_t>(
        std::lower_bound(times->begin(), times->end(), t) - times->begin());
  };
  std::vector<size_t> counts(times->size());
  ForEachInteriorBoundary(graph, [&](size_t, double t) { ++counts[slot(t)]; });
  doors->clear();
  doors->resize(times->size());
  for (size_t b = 0; b < counts.size(); ++b) (*doors)[b].reserve(counts[b]);
  ForEachInteriorBoundary(graph, [&](size_t d, double t) {
    (*doors)[slot(t)].push_back(static_cast<DoorId>(d));
  });
}

}  // namespace itspq
