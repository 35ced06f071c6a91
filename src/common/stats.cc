#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace itspq {

void LatencyHistogram::Record(double micros) {
  // A NaN sample would otherwise compare false against every bucket
  // edge and land in bucket 0, skewing p50 downward forever.
  if (std::isnan(micros)) {
    ++nan_dropped;
    return;
  }
  size_t bucket = 0;
  if (micros >= kOverflowMicros) {
    // Overflow bucket — also +infinity, which frexp cannot place.
    bucket = kNumBuckets - 1;
  } else if (micros >= 1.0) {
    int exp = 0;  // micros = m * 2^exp, m in [0.5, 1): octave exp - 1
    const double m = std::frexp(micros, &exp);
    bucket = 1 + static_cast<size_t>(exp - 1) * kSubBuckets +
             static_cast<size_t>((2 * m - 1) * kSubBuckets);
  }
  ++counts[bucket];
  ++total;
}

void LatencyHistogram::Accumulate(const LatencyHistogram& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) counts[i] += other.counts[i];
  total += other.total;
  nan_dropped += other.nan_dropped;
}

double LatencyHistogram::Quantile(double q) const {
  if (total == 0) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  const size_t target =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(q * total)));
  size_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative < target) continue;
    if (i == 0) return 1.0;
    return std::ldexp(1.0 + ((i - 1) % kSubBuckets + 1.0) / kSubBuckets,
                      static_cast<int>((i - 1) / kSubBuckets));
  }
  return kOverflowMicros;
}

}  // namespace itspq
