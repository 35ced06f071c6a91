#ifndef ITSPQ_COMMON_STATS_H_
#define ITSPQ_COMMON_STATS_H_

// Wall-clock timing, the per-query search counters reported by the
// engines (and consumed by the figure benches), and the fixed-bucket
// latency histogram shared by the serving frontend and the lazy
// catalog's cold-load accounting.

#include <chrono>
#include <cstddef>

namespace itspq {

/// Starts on construction; Elapsed* may be called repeatedly.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - start_)
        .count();
  }
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Counters for one shortest-path query (DESIGN in README.md: memory is
/// the peak of search state — heap + touched labels — plus, for the
/// asynchronous checkers, the resident reduced graph).
struct SearchStats {
  double search_micros = 0;
  size_t peak_memory_bytes = 0;
  size_t doors_popped = 0;
  /// Adjacency entries in the CSR segments the search walked, counted
  /// per segment whether or not the neighbour was already settled.
  size_t edges_scanned = 0;
  /// Number of Graph_Update reduced-graph (re)builds this query.
  size_t graph_updates = 0;
};

/// Fixed-size, log-linear latency histogram: bucket 0 counts sub-µs
/// samples, and each power of two [2^e, 2^(e+1)) µs, e in [0, 40), is
/// split into kSubBuckets linear buckets, so a quantile's upper-edge
/// estimate is within 12.5%, with zero allocation on the record path.
///
/// The last bucket doubles as the overflow bucket: samples at or above
/// kOverflowMicros (2^40 µs ≈ 12.7 days, including crazy out-of-range
/// ones) clamp into it, and a quantile that lands there reports the
/// kOverflowMicros edge — a saturation marker, not a measurement. NaN
/// samples (a network RTT computed from a poisoned clock, say) are
/// dropped and tallied in `nan_dropped` instead of polluting bucket 0.
struct LatencyHistogram {
  static constexpr size_t kSubBuckets = 8;
  static constexpr size_t kNumBuckets = 1 + 40 * kSubBuckets;
  static constexpr double kOverflowMicros = 1099511627776.0;  // 2^40
  size_t counts[kNumBuckets] = {};
  size_t total = 0;
  /// NaN samples rejected by Record (not part of `total`).
  size_t nan_dropped = 0;

  void Record(double micros);
  void Accumulate(const LatencyHistogram& other);

  /// Upper-bound estimate (µs) of the q-quantile, q in [0, 1]: the
  /// upper edge of the first bucket whose cumulative count reaches
  /// q * total. 0 when the histogram is empty; kOverflowMicros when
  /// the quantile saturates the last bucket (see above).
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P99() const { return Quantile(0.99); }
};

}  // namespace itspq

#endif  // ITSPQ_COMMON_STATS_H_
