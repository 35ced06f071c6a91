#ifndef ITSPQ_ITGRAPH_CHECKPOINTS_H_
#define ITSPQ_ITGRAPH_CHECKPOINTS_H_

// Temporal-variation checkpoints (paper §II-B): the sorted set T of
// times of day at which some door's applicability flips. The |T|
// checkpoints cut the day into |T|+1 intervals inside which the reduced
// graph is constant — the invariant Graph_Update (graph_update.h) and
// the asynchronous checkers rely on.
//
// BoundaryFlipIndex materialises the converse view: per checkpoint,
// WHICH doors flip there. Adjacent intervals differ in exactly those
// doors, which is what lets BuildSnapshotDelta derive interval k from
// interval k∓1 by touching |flips| doors instead of all of them.
// BoundaryLedger::Build compiles both views of a graph at once.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "common/time.h"
#include "venue/geometry.h"

namespace itspq {

class ItGraph;

class CheckpointSet {
 public:
  /// An empty set: the whole day is one interval.
  CheckpointSet() = default;

  /// Validates, sorts, and dedups `times` (each must lie in
  /// (0, kSecondsPerDay)). Errors on out-of-range values.
  static StatusOr<CheckpointSet> FromTimes(std::vector<double> times);

  /// BoundaryLedger::Build's checkpoints. Cannot fail: graph ATIs are
  /// normalised by construction.
  static CheckpointSet FromGraph(const ItGraph& graph);

  /// The first checkpoint strictly after time-of-day `tod`, or
  /// kSecondsPerDay when `tod` is at/after the last checkpoint. The
  /// first checkpoint after `tod` closes the interval containing it, so
  /// this is IntervalIndexOf's upper boundary.
  double NextCheckpoint(double tod) const {
    const size_t i = IntervalIndexOf(tod);
    return i == times_.size() ? kSecondsPerDay : times_[i];
  }

  /// Index in [0, NumIntervals()) of the constant-graph interval
  /// containing time-of-day `tod`. Interval i spans
  /// [times[i-1], times[i]) with times[-1] = 0 and times[|T|] = 86400.
  size_t IntervalIndexOf(double tod) const {
    return static_cast<size_t>(
        std::upper_bound(times_.begin(), times_.end(), tod) - times_.begin());
  }

  /// Midpoint of interval `index` — a representative time at which to
  /// sample door applicability for that interval.
  double IntervalMidpoint(size_t index) const {
    const double lo = index == 0 ? 0.0 : times_[index - 1];
    const double hi = index == times_.size() ? kSecondsPerDay : times_[index];
    return (lo + hi) * 0.5;
  }

  /// Inclusive lower bound of interval `index`, for membership tests
  /// that cache the current interval instead of re-running the
  /// IntervalIndexOf binary search per probe.
  double IntervalStart(size_t index) const {
    return index == 0 ? 0.0 : times_[index - 1];
  }
  /// Exclusive upper bound of interval `index`.
  double IntervalEnd(size_t index) const {
    return index == times_.size() ? kSecondsPerDay : times_[index];
  }

  size_t NumCheckpoints() const { return times_.size(); }
  size_t NumIntervals() const { return times_.size() + 1; }
  const std::vector<double>& times() const { return times_; }

 private:
  // Fills times_ sorted and unique, without FromTimes' sort.
  friend struct BoundaryLedger;

  std::vector<double> times_;  // sorted, unique, all in (0, 86400)
};

/// For each checkpoint boundary b — the shared edge between intervals b
/// and b+1, at times()[b] — the doors whose applicability differs across
/// it. Computed once per (graph, checkpoint set) pair; CSR layout so a
/// venue-wide index is two flat vectors. Immutable once built, safe to
/// share across threads.
class BoundaryFlipIndex {
 public:
  BoundaryFlipIndex() = default;

  /// Probes every door at every interval midpoint and diffs adjacent
  /// intervals: the reference BoundaryLedger::Build is tested against.
  /// `cps` must be the checkpoint set of `graph` (every ATI boundary a
  /// checkpoint); under that invariant every door's applicability is
  /// constant inside an interval and the midpoint probe is exact.
  static BoundaryFlipIndex Build(const ItGraph& graph,
                                 const CheckpointSet& cps);

  size_t NumBoundaries() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t size() const { return NumBoundaries(); }

  /// The doors flipping at boundary `b`, ascending.
  Span<DoorId> operator[](size_t b) const {
    return CsrList(offsets_, doors_, b);
  }

  /// Doors flipping at boundary `b`, as a [begin, end) range into the
  /// flat door array.
  const DoorId* FlipsBegin(size_t b) const { return doors_.data() + offsets_[b]; }
  const DoorId* FlipsEnd(size_t b) const {
    return doors_.data() + offsets_[b + 1];
  }
  size_t NumFlips(size_t b) const { return offsets_[b + 1] - offsets_[b]; }

  /// Total flip entries across all boundaries.
  size_t TotalFlips() const { return doors_.size(); }

  size_t MemoryUsage() const {
    return offsets_.capacity() * sizeof(size_t) +
           doors_.capacity() * sizeof(DoorId);
  }

 private:
  // Writes the CSR in place.
  friend struct BoundaryLedger;

  std::vector<size_t> offsets_;  // NumBoundaries() + 1 entries
  std::vector<DoorId> doors_;    // concatenated per-boundary flip lists
};

/// A graph's checkpoint set, and per checkpoint the ascending doors
/// whose ATI row has that time as an interior boundary. For normalised
/// rows every interior boundary is a genuine applicability flip, so
/// `flips` equals BoundaryFlipIndex::Build(graph, checkpoints).
struct BoundaryLedger {
  CheckpointSet checkpoints;
  BoundaryFlipIndex flips;

  /// Two walks over the rows, O(P) for P interior boundaries: the first
  /// files and counts each under its time in a small open-addressed
  /// table (retried on a heap table of 2P+ slots past kLedgerMaxDistinct
  /// times or kLedgerMaxProbe probes), the distinct times are sorted, and
  /// the second writes each door straight into its CSR slot. A probe
  /// overflow there sorts the P (time, door) pairs: O(P log P) at worst.
  static BoundaryLedger Build(const ItGraph& graph);
};

/// The ledger's stack table: 2^kLedgerSlotBits slots, half filled at most.
inline constexpr int kLedgerSlotBits = 7;
inline constexpr size_t kLedgerSlots = size_t{1} << kLedgerSlotBits;
inline constexpr size_t kLedgerMaxDistinct = kLedgerSlots / 2;
inline constexpr size_t kLedgerMaxProbe = 8;

/// A time's home slot of 2^slot_bits: the top bits of a multiplicative
/// hash of its bit pattern, which read every bit. Public for tests.
inline size_t LedgerHomeSlot(double t, int slot_bits = kLedgerSlotBits) {
  uint64_t bits;
  std::memcpy(&bits, &t, sizeof(bits));
  return (bits * 0x9E3779B97F4A7C15ull) >> (64 - slot_bits);
}

}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_CHECKPOINTS_H_
