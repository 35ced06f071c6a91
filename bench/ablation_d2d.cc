// Ablation: staleness of a materialized door-to-door (D2D) index, the
// pre-computed approach the paper's introduction argues against. Such an
// index stores each pair's static distance, which is NTV's answer. SNAP
// answers the same pair over the doors open at the query hour, so at
// each hour a stored entry is wrong where SNAP's length differs
// ("changed": a detour is needed) and dead where SNAP finds no route
// ("unreachable") — the paper's motivating claim, quantified.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_common.h"

namespace itspq {
namespace bench {
namespace {

void Run(uint64_t seed) {
  World world = BuildWorld(kDefaultT, /*floors=*/2, seed);
  const auto queries = MakeWorkload(world, 900, /*pairs=*/60, seed + 57);
  const auto ntv = MakeRouterOrDie(world, "ntv");
  const auto snap = MakeRouterOrDie(world, "snap");
  QueryContext context;
  auto route = [&](const Router& router, const QueryInstance& q, Instant t) {
    auto result =
        router.Route(QueryRequest{q.ps, q.pt, t, QueryOptions()}, &context);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    return *std::move(result);
  };

  std::vector<double> stored;
  for (const QueryInstance& q : queries) {
    stored.push_back(route(*ntv, q, Instant()).path.length_m());
  }

  std::printf(
      "\n== Ablation: materialized D2D staleness (2-floor mall, %zu doors, "
      "seed %llu) ==\n",
      world.graph->NumDoors(), static_cast<unsigned long long>(seed));
  std::printf("%-6s %10s %12s %12s %10s\n", "t", "sampled", "changed",
              "unreachable", "invalid");
  for (int hour = 0; hour <= 22; hour += 2) {
    size_t changed = 0, unreachable = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const QueryResult now =
          route(*snap, queries[i], Instant::FromHMS(hour));
      if (!now.found) {
        ++unreachable;
      } else if (std::abs(now.path.length_m() - stored[i]) > 1e-6) {
        ++changed;
      }
    }
    std::printf("%-6d %10zu %12zu %12zu %9.0f%%\n", hour, queries.size(),
                changed, unreachable,
                100.0 * static_cast<double>(changed + unreachable) /
                    static_cast<double>(queries.size()));
  }
}

}  // namespace
}  // namespace bench
}  // namespace itspq

int main(int argc, char** argv) {
  itspq::bench::Run(itspq::bench::ParseSeedFlag(argc, argv, 42));
  return 0;
}
