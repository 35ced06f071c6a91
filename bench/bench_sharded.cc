// Sharded serving throughput: RouteBatch over a ShardedRouter fanning a
// Zipf-skewed multi-venue workload out across per-venue shards.
//
// Two readings:
//   1. Thread scaling at fixed fleet size — the batch thread pool over a
//      mixed-venue request stream (work-stealing hops shards freely).
//   2. Capacity scaling along the diagonal — traffic and worker threads
//      grow with the fleet (requests/shard and threads/shard constant),
//      the acceptance check that aggregate throughput is near-linear in
//      shard count from 1 to 4.
//
// Ends with the CatalogStats report of the largest fleet: per-shard
// traffic, answer counts, snapshot-cache builds, and resident memory.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/memory_tracker.h"
#include "common/stats.h"
#include "gen/workload_gen.h"
#include "query/sharded_router.h"
#include "query/venue_catalog.h"

namespace itspq {
namespace bench {
namespace {

constexpr int kRequestsPerShard = 2048;
constexpr uint64_t kDefaultSeed = 2020;

// Small heterogeneous venues (1-2 floors) keep the CI smoke run fast;
// per-query cost is identical across fleet sizes, which is what makes
// the shard-scaling comparison clean.
VenueCatalog BuildCatalog(int num_venues, uint64_t seed) {
  return BuildServingCatalog(num_venues, /*max_floors=*/2, seed);
}

std::vector<QueryRequest> BuildWorkload(const VenueCatalog& catalog,
                                        int num_requests, uint64_t seed) {
  MultiVenueWorkloadConfig config;
  config.num_requests = num_requests;
  config.seed = seed + 1;
  config.options.use_snapshot_cache = true;  // serving shape: shared cache on
  auto workload = GenerateMultiVenueWorkload(catalog, config);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 workload.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(workload);
}

// Kilo-queries per second of one RouteBatch call (after a warm-up batch
// that populates every shard's snapshot cache).
double MeasureKqps(const ShardedRouter& router,
                   const std::vector<QueryRequest>& requests, int threads) {
  BatchOptions options;
  options.num_threads = threads;
  Timer timer;
  const auto results = router.RouteBatch(requests, options);
  const double seconds = timer.ElapsedSeconds();
  for (const auto& r : results) {
    if (!r.ok()) {
      std::fprintf(stderr, "request failed: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
  }
  return static_cast<double>(requests.size()) / seconds / 1e3;
}

void Run(int threads_override, uint64_t seed) {
  // Thread and diagonal scaling are hardware-bound: on a 1-core host
  // every row collapses to sequential throughput (the interesting
  // signal there is that fan-out costs nothing), so print the budget.
  // `--threads=N` pins the sweep to {1, N} for rerunning single rows on
  // real multi-core hardware.
  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  std::printf("seed: %llu (rerun with --seed=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (threads_override > 0) {
    std::printf("thread override: --threads=%d\n", threads_override);
    thread_counts = {1, threads_override};
  }

  // --- Reading 1: thread scaling at fixed fleet sizes.
  std::vector<std::string> series;
  for (int threads : thread_counts) {
    series.push_back(std::to_string(threads) +
                     (threads == 1 ? " thread" : " threads"));
  }
  PrintHeader("bench_sharded: batch throughput, Zipf(1.0) traffic",
              "shards", series);
  for (int shards : {1, 2, 4}) {
    VenueCatalog catalog = BuildCatalog(shards, seed);
    ShardedRouter router(catalog);
    const auto requests =
        BuildWorkload(catalog, kRequestsPerShard * shards, seed);
    (void)MeasureKqps(router, requests, 1);  // warm the snapshot caches
    std::vector<double> row;
    for (int threads : thread_counts) {
      row.push_back(MeasureKqps(router, requests, threads));
    }
    PrintRow(std::to_string(shards), row, "kq/s");
  }

  // --- Reading 2: the capacity diagonal (threads = shards, traffic
  // proportional to the fleet). Near-linear kq/s growth 1 -> 4 shards
  // is the sharding acceptance check.
  std::printf("\n== capacity diagonal: threads = shards, %d requests/shard ==\n",
              kRequestsPerShard);
  std::printf("%-8s %12s %10s\n", "shards", "throughput", "speedup");
  double base_kqps = 0;
  CatalogStats last_stats;
  for (int shards : {1, 2, 4}) {
    VenueCatalog catalog = BuildCatalog(shards, seed);
    ShardedRouter router(catalog);
    const auto requests =
        BuildWorkload(catalog, kRequestsPerShard * shards, seed);
    (void)MeasureKqps(router, requests, 1);
    const double kqps = MeasureKqps(router, requests, shards);
    if (shards == 1) base_kqps = kqps;
    std::printf("%-8d %8.1f kq/s %9.2fx\n", shards, kqps, kqps / base_kqps);
    last_stats = catalog.Stats();
  }

  // --- The CatalogStats report of the last (4-shard) fleet, with the
  // per-shard snapshot-store columns (hits/misses/evictions, full vs
  // delta builds, resident cache bytes).
  std::printf("\n== catalog stats (4 shards, after %d queries) ==\n",
              static_cast<int>(last_stats.total_queries));
  std::printf("%-10s %-8s %8s %8s %6s %7s %6s %5s %5s %9s %9s\n", "venue",
              "strategy", "queries", "found", "errors", "hits", "miss",
              "evict", "delta", "cache", "memory");
  auto print_stats_row = [](const char* label, const char* strategy,
                            size_t queries, size_t found, size_t errors,
                            const CacheStatsSnapshot& cache,
                            size_t memory_bytes) {
    std::printf("%-10s %-8s %8zu %8zu %6zu %7zu %6zu %5zu %5zu %9s %9s\n",
                label, strategy, queries, found, errors, cache.hits,
                cache.misses, cache.evictions, cache.delta_builds,
                FormatBytes(cache.resident_bytes).c_str(),
                FormatBytes(memory_bytes).c_str());
  };
  for (const ShardStats& s : last_stats.shards) {
    print_stats_row(s.label.c_str(), s.strategy.c_str(), s.queries_served,
                    s.routes_found, s.route_errors, s.cache, s.memory_bytes);
  }
  print_stats_row("total", "-", last_stats.total_queries,
                  last_stats.total_found, last_stats.total_errors,
                  last_stats.total_cache, last_stats.total_memory_bytes);
}

}  // namespace
}  // namespace bench
}  // namespace itspq

int main(int argc, char** argv) {
  int threads_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads_override = std::atoi(argv[i] + 10);
    }
  }
  const uint64_t seed =
      itspq::bench::ParseSeedFlag(argc, argv, itspq::bench::kDefaultSeed);
  itspq::bench::Run(threads_override, seed);
  return 0;
}
