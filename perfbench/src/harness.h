#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing shared by every workload: clocks, process
// counters read from /proc, order statistics, reply digests, the span
// tracer, and the result record itspq_perfbench prints as its last line.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "query/path.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// User + system CPU of the whole process, µs (getrusage).
double ProcessCpuUs();
/// CPU of the calling thread, µs (CLOCK_THREAD_CPUTIME_ID).
double ThreadCpuUs();
/// Host steal ticks summed over all CPUs (/proc/stat); 0 when absent.
uint64_t StealTicks();
/// Returns freed heap to the OS, then resets the kernel's RSS
/// high-water mark, so PeakRssMb() covers only what runs afterwards.
void ResetPeakRss();
/// VmHWM of this process, MiB.
double PeakRssMb();

/// q-quantile (q in [0, 1], nearest rank) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// 64-bit FNV-1a over everything a reply answers: status code, found,
/// path, reachable set and legs, doubles bit for bit. The request id
/// and error text are left out, so a socket reply and the MakeReply of
/// a direct Route of the same request digest equal.
uint64_t ReplyDigest(const itspq::net::WireReply& reply);
uint64_t ResultDigest(const itspq::StatusOr<itspq::QueryResult>& result);

/// One traced call. Spans of one request share `request`; `parent` is
/// the index of the enclosing span, -1 for a root.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
};

/// In-memory span log. Disabled tracers record nothing and cost one
/// branch per call, so traced and untraced runs share the same code.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Appends a finished span and returns its index (-1 when disabled).
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint32_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time, µs, of the spans whose name starts with `layer` + '.'
  /// and whose request lies in [request_begin, request_end), summed per
  /// request and averaged over the requests that have such a span; 0
  /// when none has.
  double MeanSelfUs(const std::string& layer, uint32_t request_begin,
                    uint32_t request_end) const;

  /// Moves `other`'s spans to the end of this log, keeping their
  /// parent links.
  void Append(const Tracer& other);

  /// Writes one tab-separated line per span (name, start, end, parent,
  /// request) after a header. False on I/O failure.
  bool WriteTsv(const std::string& path) const;

 private:
  /// Self time of each span: its duration minus its children's.
  std::vector<int64_t> SelfTimes() const;

  bool enabled_;
  std::vector<Span> spans_;
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end set on an
/// untraced run and the per-layer set on a traced one.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable reasons a check failed (printed to stderr).
  std::vector<std::string> errors;
  /// For the context stamp: host steal ticks over the timed window(s),
  /// OK socket replies in them, and how many of those were checked
  /// against an independently computed answer.
  uint64_t steal_ticks = 0;
  uint64_t ok_replies = 0;
  uint64_t checked = 0;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// The result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
std::string ResultJson(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
