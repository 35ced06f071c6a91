#include "itgraph/ati.h"

#include <algorithm>
#include <string>
#include <utility>

namespace itspq {

Status AtiSet::AppendNormalised(Span<TimeInterval> intervals,
                                std::vector<TimeInterval>* scratch,
                                std::vector<double>* starts,
                                std::vector<double>* ends) {
  std::vector<TimeInterval>& flat = *scratch;
  flat.clear();
  for (const TimeInterval& iv : intervals) {
    Status status = CheckInterval(iv);
    if (!status.ok()) return status;
    // A start at 24:00 is the same instant as 00:00; normalising it here
    // keeps the wrap branch from emitting a degenerate [86400, 86400)
    // piece whose boundary would leak into the checkpoint set.
    const double start = iv.start == kSecondsPerDay ? 0.0 : iv.start;
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

Status AtiSet::CheckInterval(const TimeInterval& iv) {
  // Written so that NaN fails: every comparison with NaN is false.
  const auto in_day = [](double x) { return x >= 0 && x <= kSecondsPerDay; };
  if (!in_day(iv.start) || !in_day(iv.end)) {
    return InvalidArgumentError(
        "ATI interval outside [0, 86400]: [" + std::to_string(iv.start) +
        ", " + std::to_string(iv.end) + ")");
  }
  // {86400, 0} is the same empty instant as {0, 0}.
  const double start = iv.start == kSecondsPerDay ? 0.0 : iv.start;
  if (iv.start == iv.end || start == iv.end) {
    return InvalidArgumentError("zero-length ATI interval at " +
                                std::to_string(iv.end));
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
