// Ablation over the SnapshotStore: Alg. 3 as published (rebuild the
// reduced graph from G0 at every update) vs the budgeted LRU
// per-interval store, swept over its byte budget; plus the two miss
// builders (from G0 vs delta from a neighbour) head to head.
//
// The workload alternates query times across checkpoint intervals so
// the time-dependent graph must switch on every query — the worst case
// for rebuild-from-G0, and under a tight budget the worst case for
// eviction too (every interval keeps coming back).
//
// `--smoke` shrinks the venue to one floor and one |T| setting so CI
// can exercise the eviction paths on each push;
// `--seed=N` threads through venue and workload generation so a
// printed seed reproduces the exact run.

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "common/memory_tracker.h"
#include "common/stats.h"
#include "itgraph/graph_update.h"
#include "itgraph/snapshot_store.h"

namespace itspq {
namespace bench {
namespace {

// Alternate hours across the day to force interval switches.
const std::vector<int> kHours = {6, 12, 8, 18, 10, 20, 12, 22};

// --- Part 1: the builders head to head. Mean cost of deriving one
// reduced graph from G0 vs from the adjacent interval's snapshot (the
// acceptance check: delta strictly cheaper on the fig-sized venue).
void BuildCostComparison(const World& world, int reps) {
  const CheckpointSet cps = CheckpointSet::FromGraph(*world.graph);
  const BoundaryFlipIndex flips = BoundaryFlipIndex::Build(*world.graph, cps);
  const size_t intervals = cps.NumIntervals();

  double full_us = 0, delta_us = 0;
  size_t builds = 0, touches = 0;
  std::vector<GraphSnapshot> snaps(intervals);
  for (size_t i = 0; i < intervals; ++i) {
    snaps[i] = BuildSnapshot(*world.graph, cps, i);
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i + 1 < intervals; ++i) {
      Timer full_timer;
      GraphSnapshot full = BuildSnapshot(*world.graph, cps, i + 1);
      full_us += full_timer.ElapsedMicros();

      size_t touched = 0;
      Timer delta_timer;
      GraphSnapshot delta = BuildSnapshotDelta(*world.graph, cps, flips,
                                               snaps[i], i + 1, &touched);
      delta_us += delta_timer.ElapsedMicros();
      touches += touched;
      ++builds;
      if (delta.open_door_count != full.open_door_count) {
        std::fprintf(stderr, "delta/full divergence at interval %zu\n", i + 1);
        std::exit(1);
      }
    }
  }
  std::printf(
      "\n== Graph_Update builders: from G0 vs delta from neighbour ==\n"
      "doors %zu, intervals %zu, flip entries %zu (%.1f doors/boundary)\n"
      "%-12s %12s %16s\n",
      world.graph->NumDoors(), intervals, flips.TotalFlips(),
      static_cast<double>(flips.TotalFlips()) /
          static_cast<double>(cps.NumCheckpoints() ? cps.NumCheckpoints() : 1),
      "builder", "us/build", "doors touched");
  std::printf("%-12s %12.2f %16zu\n", "full (G0)",
              full_us / static_cast<double>(builds), world.graph->NumDoors());
  std::printf("%-12s %12.2f %16zu\n", "delta",
              delta_us / static_cast<double>(builds), touches / builds);
  std::printf("delta/full cost ratio: %.3f (%s)\n", delta_us / full_us,
              delta_us < full_us ? "delta strictly cheaper" : "NOT cheaper");
}

// --- Part 2: the serving path. ITG/A+ reading reduced graphs through a
// SnapshotStore, swept over its budget, against the rebuild-from-G0
// baseline.
struct SweepRow {
  double mean_us = 0;
  CacheStatsSnapshot cache;
};

SweepRow RunStore(const World& world,
                  const std::vector<QueryInstance>& queries, int reps,
                  bool use_cache, size_t budget_bytes) {
  RouterBuildOptions options;
  options.snapshot_cache.budget_bytes = budget_bytes;
  const auto router = MakeRouterOrDie(world, "itg-a+", options);

  QueryOptions query_options;
  query_options.use_snapshot_cache = use_cache;
  QueryContext context;
  double total_us = 0;
  size_t n = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (int hour : kHours) {
      for (const QueryInstance& q : queries) {
        auto r = router->Route(
            QueryRequest{q.ps, q.pt, Instant::FromHMS(hour), query_options},
            &context);
        if (!r.ok()) continue;
        total_us += r->stats.search_micros;
        ++n;
      }
    }
  }
  SweepRow row;
  row.mean_us = total_us / static_cast<double>(n);
  row.cache = router->CacheStats();
  return row;
}

void BudgetSweep(const World& world, int t_size, int reps, uint64_t seed) {
  const auto queries =
      MakeWorkload(world, kDefaultS2t, kPairsPerSetting, seed + 1);

  // Budgets in units of one resident snapshot, so the sweep scales with
  // the venue instead of hard-coding byte counts.
  const CheckpointSet cps = CheckpointSet::FromGraph(*world.graph);
  const GraphSnapshot one = BuildSnapshot(*world.graph, cps, 0);
  const size_t snap_bytes = sizeof(GraphSnapshot) + one.MemoryUsage();
  const size_t intervals = cps.NumIntervals();

  std::printf(
      "\n== |T| = %d: LRU budget sweep (ITG/A+, %zu intervals, "
      "%s/snapshot) ==\n"
      "%-10s %10s %7s %7s %7s %6s %6s %8s %10s\n",
      t_size, intervals, FormatBytes(snap_bytes).c_str(), "budget",
      "us/query", "hits", "misses", "evict", "full", "delta", "touches",
      "resident");

  const SweepRow rebuild =
      RunStore(world, queries, reps, /*use_cache=*/false, 0);
  std::printf("%-10s %10.1f %7s %7s %7s %6s %6s %8s %10s\n", "(no store)",
              rebuild.mean_us, "-", "-", "-", "-", "-", "-", "-");

  struct BudgetSetting {
    const char* label;
    size_t snapshots;  // 0 = unlimited
  };
  const BudgetSetting budgets[] = {
      {"unlimited", 0},
      {"half", (intervals + 1) / 2},
      {"2 snaps", 2},
  };
  for (const BudgetSetting& budget : budgets) {
    const SweepRow row = RunStore(world, queries, reps, /*use_cache=*/true,
                                  budget.snapshots * snap_bytes);
    std::printf("%-10s %10.1f %7zu %7zu %7zu %6zu %6zu %8zu %10s\n",
                budget.label, row.mean_us, row.cache.hits, row.cache.misses,
                row.cache.evictions, row.cache.full_builds,
                row.cache.delta_builds, row.cache.delta_door_touches,
                FormatBytes(row.cache.resident_bytes).c_str());
  }
}

void Run(bool smoke, uint64_t seed) {
  std::printf("seed: %llu (rerun with --seed=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  if (smoke) {
    // Tiny venue, budgets tight enough that the store evicts constantly
    // — the CI check that eviction paths stay healthy.
    World world = BuildWorld(/*checkpoint_count=*/6, /*floors=*/1, seed);
    BuildCostComparison(world, /*reps=*/3);
    BudgetSweep(world, 6, /*reps=*/1, seed);
    return;
  }
  {
    // The fig-sized venue (paper's 5-floor mall) for the builder
    // acceptance comparison.
    World world = BuildWorld(kDefaultT, /*floors=*/5, seed);
    BuildCostComparison(world, /*reps=*/10);
  }
  for (int t_size : {4, 8, 16}) {
    World world = BuildWorld(t_size, /*floors=*/5, seed);
    BudgetSweep(world, t_size, /*reps=*/3, seed);
  }
}

}  // namespace
}  // namespace bench
}  // namespace itspq

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const uint64_t seed = itspq::bench::ParseSeedFlag(argc, argv, 42);
  itspq::bench::Run(smoke, seed);
  return 0;
}
