#ifndef ITSPQ_ITGRAPH_ATI_H_
#define ITSPQ_ITGRAPH_ATI_H_

// Applicable Time Intervals (paper §II-B): the daily intervals during
// which a door can be passed. An empty/full set means always open.
//
// Intervals are normalised once — wrapped past-midnight intervals are
// split, overlaps merged — into disjoint sorted [start, end) intervals.
// AtiSet owns one normalised set; AtiRow is a non-owning view of one,
// which is how ItGraph hands out a door's row of its flat ATI store.

#include <cstddef>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "common/time.h"

namespace itspq {

/// A read-only view of one normalised ATI: parallel start/end bounds of
/// disjoint sorted [start, end) intervals, none meaning always open.
class AtiRow {
 public:
  AtiRow(const double* starts, const double* ends, size_t size)
      : starts_(starts), ends_(ends), size_(size) {}

  /// True when the door is passable at time-of-day `tod` (any absolute
  /// time is accepted and wrapped into one day). Rows are a handful of
  /// intervals, so a forward scan beats a binary search.
  bool ContainsTimeOfDay(double tod) const {
    if (size_ == 0) return true;  // always open
    const double t =
        (tod >= 0 && tod < kSecondsPerDay) ? tod : WrapTimeOfDay(tod);
    // Last interval starting at or before t.
    size_t last = size_;
    for (size_t i = 0; i < size_ && starts_[i] <= t; ++i) last = i;
    return last != size_ && t < ends_[last];
  }

  bool IsAlwaysOpen() const { return size_ == 0; }

  /// Interval boundaries strictly inside the day, i.e. excluding 0 and
  /// kSecondsPerDay — these are the temporal-variation checkpoints this
  /// door contributes.
  std::vector<double> InteriorBoundaries() const;

  Span<double> starts() const { return {starts_, size_}; }
  Span<double> ends() const { return {ends_, size_}; }

 private:
  const double* starts_;
  const double* ends_;
  size_t size_;
};

/// Owns one normalised ATI; read it through row().
class AtiSet {
 public:
  /// An always-open set (no temporal variation).
  AtiSet() = default;

  /// Normalises and validates `intervals`. Each interval must have
  /// start and end within [0, kSecondsPerDay]; `end < start` wraps past
  /// midnight and is split into two. Errors on out-of-range or
  /// zero-length intervals. An empty list yields an always-open set.
  static StatusOr<AtiSet> Create(std::vector<TimeInterval> intervals);

  /// Create's normaliser over a caller's flat store: appends the bounds
  /// of `intervals` to `starts`/`ends` (none when always open), untouched
  /// on error. `scratch` is working space, never reallocated when large
  /// enough, so a caller normalising many rows can reserve it once. A
  /// lone in-day, non-wrapping interval takes a fast path that skips
  /// the scratch, sort and merge.
  static Status AppendNormalised(Span<TimeInterval> intervals,
                                 std::vector<TimeInterval>* scratch,
                                 std::vector<double>* starts,
                                 std::vector<double>* ends);

  /// The normalised set, read through the same view as a graph's rows.
  AtiRow row() const { return {starts_.data(), ends_.data(), starts_.size()}; }

 private:
  // Parallel arrays of disjoint, sorted [start, end) intervals. Empty
  // arrays encode "always open". A set covering the whole day collapses
  // to empty during normalisation.
  std::vector<double> starts_;
  std::vector<double> ends_;
};

}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_ATI_H_
