#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double ProcessCpuUs() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double ThreadCpuUs() {
  timespec ts = {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  uint64_t fields[8] = {};
  if (!(in >> label) || label != "cpu") return 0;
  for (uint64_t& field : fields) {
    if (!(in >> field)) return 0;
  }
  return fields[7];  // user nice system idle iowait irq softirq steal
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

namespace {

class Fnv {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  template <typename T>
  void Value(const T& v) {
    Bytes(&v, sizeof v);
  }
  void Steps(const std::vector<itspq::PathStep>& steps) {
    Value(steps.size());
    for (const itspq::PathStep& s : steps) {
      Value(s.door);
      Value(s.cumulative_m);
      Value(s.arrival_seconds);
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

}  // namespace

uint64_t ReplyDigest(const itspq::net::WireReply& reply) {
  Fnv h;
  h.Value(static_cast<int>(reply.code));
  if (reply.code != itspq::StatusCode::kOk) return h.hash();
  h.Value(reply.found);
  h.Value(reply.length_m);
  h.Value(reply.departure_seconds);
  h.Steps(reply.steps);
  h.Value(reply.reachable.size());
  for (const itspq::ReachableDoor& r : reply.reachable) {
    h.Value(r.door);
    h.Value(r.distance_m);
    h.Value(r.arrival_seconds);
  }
  h.Value(reply.legs.size());
  for (const itspq::net::WireLeg& leg : reply.legs) {
    h.Value(leg.length_m);
    h.Value(leg.departure_seconds);
    h.Steps(leg.steps);
  }
  return h.hash();
}

uint64_t ResultDigest(const itspq::StatusOr<itspq::QueryResult>& result) {
  return ReplyDigest(itspq::net::MakeReply(0, result));
}

int32_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    int32_t parent, uint32_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

double Tracer::MeanSelfUs(const std::string& layer, uint32_t request_begin,
                          uint32_t request_end) const {
  const std::vector<int64_t> self = SelfTimes();
  const std::string prefix = layer + ".";
  std::vector<bool> seen(request_end - request_begin, false);
  double total_ns = 0;
  size_t requests = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.request >= request_begin && s.request < request_end &&
        std::strncmp(s.name, prefix.c_str(), prefix.size()) == 0) {
      total_ns += static_cast<double>(self[i]);
      if (!seen[s.request - request_begin]) {
        seen[s.request - request_begin] = true;
        ++requests;
      }
    }
  }
  return requests == 0 ? 0 : total_ns / 1e3 / static_cast<double>(requests);
}

void Tracer::Append(const Tracer& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  // Spans nest only within one execution. The socket pass (client.*,
  // net.*), the in-process replays (server.submit; venue.locate and
  // query.route) and the shadow update apply (update.apply) are separate
  // runs over the same requests, so comparing their spans across runs
  // gives estimates, not a measured split of one request.
  std::fprintf(out,
               "# spans nest only within one execution; the in-process "
               "replays are separate runs of the same requests\n"
               "name\tstart_ns\tend_ns\tparent\trequest\n");
  for (const Span& s : spans_) {
    std::fprintf(out, "%s\t%lld\t%lld\t%d\t%u\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.request);
  }
  return std::fclose(out) == 0;
}

std::string ResultJson(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    // %.17g keeps every digit; a non-finite value is not valid JSON.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
