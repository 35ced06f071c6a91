#include "itgraph/checkpoints.h"

#include <algorithm>
#include <string>
#include <utility>

#include "itgraph/graph_update.h"
#include "itgraph/itgraph.h"

namespace itspq {

namespace {

/// One slot of the ledger table: a distinct time (0, never an interior
/// boundary, marks an empty slot) and its entry count, which becomes
/// its CSR write cursor.
struct LedgerSlot {
  double time;
  size_t entries;
};

/// The slot holding `t`, or the empty slot that should; null when
/// neither lies within kLedgerMaxProbe steps of the home slot.
LedgerSlot* Probe(LedgerSlot* table, double t) {
  size_t at = LedgerHomeSlot(t);
  for (size_t step = 0; step < kLedgerMaxProbe; ++step) {
    if (table[at].time == t || table[at].time == 0) return &table[at];
    at = (at + 1) & (kLedgerSlots - 1);
  }
  return nullptr;
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
  return BoundaryLedger::Build(graph).checkpoints;
}

BoundaryFlipIndex BoundaryFlipIndex::Build(const ItGraph& graph,
                                           const CheckpointSet& cps) {
  BoundaryFlipIndex index;
  const size_t boundaries = cps.NumCheckpoints();
  index.offsets_.assign(boundaries + 1, 0);

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

BoundaryLedger BoundaryLedger::Build(const ItGraph& graph) {
  BoundaryLedger ledger;
  std::vector<double>& times = ledger.checkpoints.times_;
  std::vector<size_t>& offsets = ledger.flips.offsets_;
  std::vector<DoorId>& doors = ledger.flips.doors_;

  // First walk: file and count every boundary under its time.
  LedgerSlot table[kLedgerSlots] = {};
  size_t distinct = 0;
  size_t total = 0;
  bool fits = true;
  graph.ForEachInteriorBoundary([&](DoorId, double t) {
    ++total;
    LedgerSlot* slot = fits ? Probe(table, t) : nullptr;
    if (slot != nullptr && slot->time == 0 && distinct < kLedgerMaxDistinct) {
      slot->time = t;
      ++distinct;
    }
    fits = slot != nullptr && slot->time == t;
    if (fits) ++slot->entries;
  });

  if (!fits) {
    // Too many distinct times, or too clustered a table: sort the
    // (time, door) pairs, which also orders each time's doors.
    std::vector<std::pair<double, DoorId>> pairs;
    pairs.reserve(total);
    graph.ForEachInteriorBoundary([&pairs](DoorId d, double t) {
      pairs.emplace_back(t, d);
    });
    std::sort(pairs.begin(), pairs.end());
    doors.reserve(total);
    for (const auto& [t, d] : pairs) {
      if (times.empty() || times.back() != t) {
        times.push_back(t);
        offsets.push_back(doors.size());
      }
      doors.push_back(d);
    }
    offsets.push_back(doors.size());
    return ledger;
  }

  LedgerSlot* order[kLedgerMaxDistinct];
  size_t used = 0;
  for (LedgerSlot& slot : table) {
    if (slot.time != 0) order[used++] = &slot;
  }
  std::sort(order, order + used, [](const LedgerSlot* a, const LedgerSlot* b) {
    return a->time < b->time;
  });
  times.resize(used);
  offsets.assign(used + 1, 0);
  for (size_t i = 0; i < used; ++i) {
    times[i] = order[i]->time;
    offsets[i + 1] = offsets[i] + order[i]->entries;
    order[i]->entries = offsets[i];
  }
  // Second walk: each door into its time's next CSR slot.
  doors.resize(total);
  graph.ForEachInteriorBoundary([&](DoorId d, double t) {
    doors[Probe(table, t)->entries++] = d;
  });
  return ledger;
}

}  // namespace itspq
