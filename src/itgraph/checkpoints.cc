#include "itgraph/checkpoints.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "itgraph/graph_update.h"
#include "itgraph/itgraph.h"

namespace itspq {

namespace {

/// One slot of a ledger table: a distinct time (0, never an interior
/// boundary, marks an empty slot) and its entry count, which becomes
/// its CSR write cursor.
struct LedgerSlot {
  double time;
  size_t entries;
};

/// The slot of the 2^bits-slot `table` holding `t`, or the empty slot
/// that should; null when neither lies within kLedgerMaxProbe steps of
/// the home slot. An integral_constant `bits` makes the shifts constant.
template <typename Bits>
LedgerSlot* Probe(LedgerSlot* table, Bits bits, double t) {
  size_t at = LedgerHomeSlot(t, bits);
  for (size_t step = 0; step < kLedgerMaxProbe; ++step) {
    if (table[at].time == t || table[at].time == 0) return &table[at];
    at = (at + 1) & ((size_t{1} << bits) - 1);
  }
  return nullptr;
}

/// The ledger through a zeroed table of 2^bits slots, at most half
/// filled, in the two walks Build describes. False, with nothing
/// written, when a time finds no slot; `total` gets the boundary count.
template <typename Bits>
[[gnu::noinline]]  // inlined into Build, the walks ran ~10% slower
bool HashLedger(const ItGraph& graph, LedgerSlot* table, Bits bits,
                std::vector<double>* times, std::vector<size_t>* offsets,
                std::vector<DoorId>* doors, size_t* total) {
  size_t distinct = 0;
  size_t count = 0;
  bool fits = true;
  graph.ForEachInteriorBoundary([&](DoorId, double t) {
    ++count;
    LedgerSlot* slot = fits ? Probe(table, bits, t) : nullptr;
    if (slot != nullptr && slot->time == 0 &&
        distinct < size_t{1} << (bits - 1)) {
      slot->time = t;
      ++distinct;
    }
    fits = slot != nullptr && slot->time == t;
    if (fits) ++slot->entries;
  });
  *total = count;
  if (!fits) return false;

  times->resize(distinct);
  size_t next = 0;
  for (size_t i = 0; i < (size_t{1} << bits); ++i) {
    if (table[i].time != 0) (*times)[next++] = table[i].time;
  }
  std::sort(times->begin(), times->end());
  offsets->assign(distinct + 1, 0);
  for (size_t i = 0; i < distinct; ++i) {
    LedgerSlot* slot = Probe(table, bits, (*times)[i]);
    (*offsets)[i + 1] = (*offsets)[i] + slot->entries;
    slot->entries = (*offsets)[i];
  }
  doors->resize(count);
  graph.ForEachInteriorBoundary([&](DoorId d, double t) {
    (*doors)[Probe(table, bits, t)->entries++] = d;
  });
  return true;
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

  LedgerSlot small[kLedgerSlots] = {};
  size_t total = 0;
  if (HashLedger(graph, small, std::integral_constant<int, kLedgerSlotBits>(),
                 &times, &offsets, &doors, &total)) {
    return ledger;
  }
  // A heap table with a slot pair per boundary holds every time.
  int bits = kLedgerSlotBits;
  while ((size_t{1} << (bits - 1)) < total) ++bits;
  std::vector<LedgerSlot> large(size_t{1} << bits, LedgerSlot{0, 0});
  if (HashLedger(graph, large.data(), bits, &times, &offsets, &doors,
                 &total)) {
    return ledger;
  }

  // Too clustered a table: sort the (time, door) pairs, which also
  // orders each time's doors.
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

}  // namespace itspq
