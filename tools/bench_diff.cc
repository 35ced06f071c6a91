// bench_diff: compares micro_core benchmark runs and reports the
// per-benchmark delta — the regression gate CI runs against a build of
// the parent commit.
//
//   bench_diff old.json new.json            # report only
//   bench_diff --gate old.json new.json     # exit 1 on a regression
//   bench_diff --gate --threshold=0.15 ...  # custom gate (fraction)
//   bench_diff --gate old1.json old2.json --new new1.json new2.json
//
// With --new, every file before it is a run of the old side and every
// file after it a run of the new side; each row is compared on the
// median of its real_time over that side's runs, so alternating runs
// of two builds on one host cancel most of the host's drift. A run made
// with --benchmark_repetitions lists each row once per repetition: all
// of them join the row's pool, and the aggregate rows the library adds
// ("run_type": "aggregate": _mean, _median, _stddev, _cv) are skipped,
// so a spread is never compared as if it were a time. Rows only one
// side has are listed as "new" or "gone" and never fail the gate.
//
// Accepts either raw google-benchmark JSON ({"context", "benchmarks"})
// or a wrapped BENCH_prN.json ({"micro_core": {...}, ...}); the scan is
// a tolerant hand-rolled pass over the text (no JSON dependency): each
// "name" inside the benchmarks array is paired with the next
// "real_time"/"time_unit". Build types ("library_build_type" in the
// benchmark context) are printed prominently — a debug-vs-release diff
// is not a like-for-like comparison and is flagged as such.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct BenchEntry {
  std::string name;
  double time_ns = 0;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Extracts the JSON string value following `key` at/after `from`;
/// npos-safe. Returns the empty string when absent.
std::string StringAfter(const std::string& text, const std::string& key,
                        size_t from = 0) {
  const size_t at = text.find("\"" + key + "\"", from);
  if (at == std::string::npos) return "";
  const size_t open = text.find('"', text.find(':', at) + 1);
  if (open == std::string::npos) return "";
  const size_t close = text.find('"', open + 1);
  if (close == std::string::npos) return "";
  return text.substr(open + 1, close - open - 1);
}

double NumberAfter(const std::string& text, const std::string& key,
                   size_t from, size_t limit, bool* ok) {
  *ok = false;
  const size_t at = text.find("\"" + key + "\"", from);
  if (at == std::string::npos || at >= limit) return 0;
  const size_t colon = text.find(':', at);
  if (colon == std::string::npos) return 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str() + colon + 1, &end);
  if (end == text.c_str() + colon + 1) return 0;
  *ok = true;
  return v;
}

double UnitToNs(const std::string& unit) {
  if (unit == "ns" || unit.empty()) return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

/// All (name, real_time in ns) pairs of the benchmarks array, aggregate
/// rows left out. When the file wraps the run under "micro_core", the
/// scan is narrowed to it so sibling sections can never contribute
/// phantom entries.
std::vector<BenchEntry> ExtractBenchmarks(const std::string& full_text) {
  std::string text = full_text;
  const size_t wrapped = full_text.find("\"micro_core\"");
  if (wrapped != std::string::npos) text = full_text.substr(wrapped);
  const size_t array = text.find("\"benchmarks\"");
  if (array == std::string::npos) return {};

  std::vector<BenchEntry> entries;
  size_t at = array;
  for (;;) {
    const size_t name_at = text.find("\"name\"", at);
    if (name_at == std::string::npos) break;
    const size_t next_name = text.find("\"name\"", name_at + 1);
    const size_t limit =
        next_name == std::string::npos ? text.size() : next_name;
    const size_t run_type_at = text.find("\"run_type\"", name_at);
    if (run_type_at < limit &&
        StringAfter(text, "run_type", run_type_at) == "aggregate") {
      at = limit;
      continue;
    }
    BenchEntry e;
    e.name = StringAfter(text, "name", name_at);
    bool ok = false;
    const double real_time =
        NumberAfter(text, "real_time", name_at, limit, &ok);
    if (ok && !e.name.empty()) {
      e.time_ns = real_time * UnitToNs(StringAfter(text, "time_unit",
                                                   name_at));
      entries.push_back(std::move(e));
    }
    at = limit;
  }
  return entries;
}

std::string BuildType(const std::string& text) {
  const std::string v = StringAfter(text, "library_build_type");
  return v.empty() ? "unknown" : v;
}

/// One side of the comparison: every run's rows, merged by name.
struct Side {
  std::vector<std::string> order;  // first-seen row order
  std::map<std::string, std::vector<double>> times_ns;
  std::string build_type;
  bool mixed_build_types = false;
};

bool ReadSide(const std::vector<std::string>& paths, Side* side) {
  for (const std::string& path : paths) {
    std::string text;
    if (!ReadFile(path, &text)) {
      std::fprintf(stderr, "bench_diff: cannot read %s\n", path.c_str());
      return false;
    }
    const std::vector<BenchEntry> entries = ExtractBenchmarks(text);
    if (entries.empty()) {
      std::fprintf(stderr, "bench_diff: no micro_core benchmarks found in %s\n",
                   path.c_str());
      return false;
    }
    const std::string build = BuildType(text);
    if (side->build_type.empty()) side->build_type = build;
    if (build != side->build_type) side->mixed_build_types = true;
    for (const BenchEntry& e : entries) {
      std::vector<double>& times = side->times_ns[e.name];
      if (times.empty()) side->order.push_back(e.name);
      times.push_back(e.time_ns);
    }
  }
  return true;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--gate] [--threshold=FRACTION] OLD.json NEW.json\n"
      "       %s [--gate] [--threshold=FRACTION] OLD.json... --new "
      "NEW.json...\n"
      "  --gate            exit 1 when any benchmark regresses by\n"
      "                    more than the threshold (default 0.10)\n"
      "  --threshold=0.10  regression gate as a fraction of the\n"
      "                    old time\n"
      "  --new             the files after it are runs of the new side;\n"
      "                    rows compare on their median over the runs\n",
      argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  double threshold = 0.10;
  bool split = false;
  std::vector<std::string> old_paths, new_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gate") {
      gate = true;
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold = std::strtod(arg.c_str() + 12, nullptr);
      if (threshold <= 0) return Usage(argv[0]);
    } else if (arg == "--new" && !split) {
      split = true;
    } else if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) == 0) {
      return Usage(argv[0]);
    } else {
      (split ? new_paths : old_paths).push_back(arg);
    }
  }
  if (!split) {
    if (old_paths.size() != 2) return Usage(argv[0]);
    new_paths.push_back(old_paths.back());
    old_paths.pop_back();
  }
  if (old_paths.empty() || new_paths.empty()) return Usage(argv[0]);

  Side old_side, new_side;
  if (!ReadSide(old_paths, &old_side) || !ReadSide(new_paths, &new_side)) {
    return 2;
  }

  std::printf("old: %zu run(s) from %s (%s build)\n", old_paths.size(),
              old_paths[0].c_str(), old_side.build_type.c_str());
  std::printf("new: %zu run(s) from %s (%s build)\n\n", new_paths.size(),
              new_paths[0].c_str(), new_side.build_type.c_str());
  if (old_side.build_type != new_side.build_type ||
      old_side.mixed_build_types || new_side.mixed_build_types) {
    std::printf(
        "WARNING: build types differ (%s vs %s) — deltas are NOT a\n"
        "like-for-like comparison.\n\n",
        old_side.build_type.c_str(), new_side.build_type.c_str());
  }

  bool medians = false;
  for (const Side* side : {&old_side, &new_side}) {
    for (const auto& [name, times] : side->times_ns) {
      medians = medians || times.size() > 1;
    }
  }
  std::printf("%-34s %14s %14s %9s\n", "benchmark",
              medians ? "old med (ns)" : "old (ns)",
              medians ? "new med (ns)" : "new (ns)", "delta");
  int regressions = 0;
  size_t matched = 0;
  for (const std::string& name : new_side.order) {
    const double new_ns = Median(new_side.times_ns[name]);
    const auto it = old_side.times_ns.find(name);
    if (it == old_side.times_ns.end()) {
      std::printf("%-34s %14s %14.1f %9s\n", name.c_str(), "-", new_ns,
                  "new");
      continue;
    }
    ++matched;
    const double old_ns = Median(it->second);
    const double delta = (new_ns - old_ns) / old_ns;
    const bool regressed = delta > threshold;
    std::printf("%-34s %14.1f %14.1f %+8.1f%%%s\n", name.c_str(), old_ns,
                new_ns, delta * 100.0, regressed ? "  << REGRESSION" : "");
    if (regressed) ++regressions;
  }
  for (const std::string& name : old_side.order) {
    if (new_side.times_ns.count(name) == 0) {
      std::printf("%-34s %14.1f %14s %9s\n", name.c_str(),
                  Median(old_side.times_ns[name]), "-", "gone");
    }
  }

  std::printf("\n%zu benchmarks compared, %d over the %.0f%% threshold\n",
              matched, regressions, threshold * 100.0);
  if (gate && matched == 0) {
    std::fprintf(stderr, "bench_diff: --gate with no comparable benchmarks\n");
    return 2;
  }
  return gate && regressions > 0 ? 1 : 0;
}
