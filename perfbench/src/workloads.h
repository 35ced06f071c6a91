#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (artifacts, span logs).
  std::string work_dir;
};

/// The workload names BENCHMARK.json declares, in its order.
const std::vector<std::string>& WorkloadNames();

/// Generates the workload's inputs from args.seed, sets the system up,
/// drives it over loopback, checks every answer, and returns the
/// end-to-end metrics (args.trace == false) or the per-layer ones.
RunResult RunWorkload(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
