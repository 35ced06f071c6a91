// itspq_perfbench — the repository benchmark.
//
//   itspq_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--work-dir DIR]
//
// Runs one workload in this process: generates its inputs from the
// seed, builds the catalog and brings up QueryService + NetServer on
// loopback with the deployed options, drives the traffic, checks every
// answer, and prints a context line followed by one JSON result line
// (end-to-end metrics, or per-layer metrics with --trace 1). Exits 1 on
// a wrong answer or broken accounting, 2 on bad arguments.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "itspq_perfbench: %s\nusage: itspq_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

long ParseLong(const char* value, const char* flag) {
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    Usage(std::string("bad value for ") + flag + ": " + value);
  }
  return parsed;
}

/// FNV-1a over the library sources (paths and bytes, in path order):
/// names the code measured even where no git metadata exists.
std::string SourceDigest(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* dir : {"src", "include"}) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root / dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file()) files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](const std::string& bytes) {
    for (unsigned char c : bytes) hash = (hash ^ c) * 1099511628211ull;
  };
  for (const fs::path& file : files) {
    mix(fs::relative(file, root).string());
    std::ifstream in(file, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    mix(contents.str());
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

/// The commit of a git checkout at `root`, or "none".
std::string GitRevision(const fs::path& root) {
  std::ifstream head(root / ".git" / "HEAD");
  std::string line;
  if (!std::getline(head, line)) return "none";
  if (line.rfind("ref: ", 0) != 0) return line;
  std::ifstream ref(root / ".git" / line.substr(5));
  std::string rev;
  return std::getline(ref, rev) ? rev : "none";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      const long seed = ParseLong(value, "--seed");
      if (seed < 0) Usage("--seed must be >= 0");
      args.seed = static_cast<uint64_t>(seed);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(ParseLong(value, "--seconds"));
      if (args.seconds < 1 || args.seconds > 60) {
        Usage("--seconds must be in [1, 60]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      const long trace = ParseLong(value, "--trace");
      if (trace != 0 && trace != 1) Usage("--trace must be 0 or 1");
      args.trace = trace == 1;
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  const std::vector<std::string>& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
#ifndef NDEBUG
  Usage("refusing to measure a build without NDEBUG");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    Usage(std::string("refusing to measure a ") + PERFBENCH_BUILD_TYPE +
          " build");
  }
  if (args.work_dir.empty()) args.work_dir = ".bench_build/perfbench/work";
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  if (ec) Usage("cannot create --work-dir " + args.work_dir);

  const perfbench::RunResult result = perfbench::RunWorkload(args);
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "itspq_perfbench: CHECK FAILED: %s\n", error.c_str());
  }
  bool finite = true;
  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "itspq_perfbench: metric %s is not finite\n",
                   m.name.c_str());
      finite = false;
    }
  }

  // The context stamp: what was measured, where, and how disturbed.
  const fs::path root = fs::current_path();
  std::printf(
      "{\"context\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"nproc\": %ld, \"build_type\": %s, \"compiler\": %s, "
      "\"git_revision\": %s, \"source_digest\": %s, \"steal_ticks\": %llu, "
      "\"ok_replies\": %llu, \"checked\": %llu}}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(GitRevision(root)).c_str(),
      JsonString(SourceDigest(root)).c_str(),
      static_cast<unsigned long long>(result.steal_ticks),
      static_cast<unsigned long long>(result.ok_replies),
      static_cast<unsigned long long>(result.checked));
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  std::fflush(stdout);
  return result.correct && finite ? 0 : 1;
}
