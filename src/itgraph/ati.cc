#include "itgraph/ati.h"

#include <algorithm>
#include <string>
#include <utility>

namespace itspq {

Status AtiSet::AppendNormalised(Span<TimeInterval> intervals,
                                std::vector<TimeInterval>* scratch,
                                std::vector<double>* starts,
                                std::vector<double>* ends) {
  // Most doors hold one in-day, non-wrapping interval: its own row, or
  // none when it spans the whole day. A NaN, a wrap, a start at 24:00
  // or a zero length fails this test and takes the general path.
  const TimeInterval* one = intervals.size() == 1 ? &intervals[0] : nullptr;
  if (one != nullptr && one->start >= 0 && one->start < one->end &&
      one->end <= kSecondsPerDay) {
    if (one->start > 0 || one->end < kSecondsPerDay) {
      starts->push_back(one->start);
      ends->push_back(one->end);
    }
    return Status::Ok();
  }

  std::vector<TimeInterval>& flat = *scratch;
  flat.clear();
  for (const TimeInterval& iv : intervals) {
    // Written so that NaN fails: every comparison with NaN is false.
    const auto in_day = [](double x) { return x >= 0 && x <= kSecondsPerDay; };
    if (!in_day(iv.start) || !in_day(iv.end)) {
      return InvalidArgumentError(
          "ATI interval outside [0, 86400]: [" + std::to_string(iv.start) +
          ", " + std::to_string(iv.end) + ")");
    }
    // A start at 24:00 is the same instant as 00:00 ({86400, 0} is as
    // empty as {0, 0}); normalising it here also keeps the wrap branch
    // from emitting a degenerate [86400, 86400) piece whose boundary
    // would leak into the checkpoint set.
    const double start = iv.start == kSecondsPerDay ? 0.0 : iv.start;
    if (iv.start == iv.end || start == iv.end) {
      return InvalidArgumentError("zero-length ATI interval at " +
                                  std::to_string(iv.end));
    }
    if (iv.end > start) {
      flat.push_back(TimeInterval{start, iv.end});
    } else {
      // Wraps past midnight: split into the evening and morning parts.
      flat.push_back(TimeInterval{start, kSecondsPerDay});
      if (iv.end > 0) flat.push_back(TimeInterval{0, iv.end});
    }
  }

  std::sort(flat.begin(), flat.end(),
            [](const TimeInterval& a, const TimeInterval& b) {
              return a.start < b.start;
            });

  const size_t first = starts->size();
  for (const TimeInterval& iv : flat) {
    if (starts->size() > first && iv.start <= ends->back()) {
      ends->back() = std::max(ends->back(), iv.end);
    } else {
      starts->push_back(iv.start);
      ends->push_back(iv.end);
    }
  }

  // A single interval covering the whole day is "always open".
  if (starts->size() == first + 1 && starts->back() == 0 &&
      ends->back() == kSecondsPerDay) {
    starts->pop_back();
    ends->pop_back();
  }
  return Status::Ok();
}

StatusOr<AtiSet> AtiSet::Create(std::vector<TimeInterval> intervals) {
  AtiSet set;
  std::vector<TimeInterval> scratch;
  scratch.reserve(intervals.size() + 1);
  Status status =
      AppendNormalised(intervals, &scratch, &set.starts_, &set.ends_);
  if (!status.ok()) return status;
  return set;
}

std::vector<double> AtiRow::InteriorBoundaries() const {
  std::vector<double> out;
  out.reserve(size_ * 2);
  for (size_t i = 0; i < size_; ++i) {
    if (starts_[i] > 0) out.push_back(starts_[i]);
    if (ends_[i] < kSecondsPerDay) out.push_back(ends_[i]);
  }
  return out;
}

}  // namespace itspq
