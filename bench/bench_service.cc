// Serving-frontend throughput and latency: an open-loop Poisson request
// stream (GenerateOpenLoopArrivals) submitted to a QueryService at a
// sweep of offered loads. Open loop means the driver submits on the
// arrival schedule no matter how far behind the service is — overload
// shows up as queue-full rejections and deadline timeouts, exactly the
// admission behaviour the frontend exists to provide, instead of the
// driver silently slowing down.
//
// Columns per load point: offered q/s, submitted/served/rejected/timed
// out, achieved kq/s, and p50/p99 submit-to-delivery latency from the
// service's fixed-bucket histogram. Ends with the ServiceStats detail
// of the heaviest point (queue high-water, batch-size histogram,
// catalog cache totals).
//
// Latency numbers are scheduling-sensitive: on a 1-core host the
// submitter and the workers time-share, so p99 reflects contention, not
// service capacity; rerun on multi-core hardware for real numbers.
// `--smoke` shrinks the run to a CI-sized single point and exits
// non-zero if the serving invariants break; `--seed=N` reproduces a run
// exactly.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/memory_tracker.h"
#include "common/stats.h"
#include "gen/workload_gen.h"
#include "server/query_service.h"

namespace itspq {
namespace bench {
namespace {

[[noreturn]] void DieStatus(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

struct RunShape {
  int num_venues = 3;
  int max_floors = 2;
  int num_requests = 2048;
  double deadline_micros = 50'000;  // 50 ms SLO
  ServiceOptions service;
};

struct LoadResult {
  double offered_qps = 0;
  double achieved_kqps = 0;
  ServiceStats stats;
};

// One load point end to end: fresh catalog + service (the service owns
// its catalog, so points can't share one), paced submission, full
// drain, final stats.
LoadResult RunLoadPoint(const RunShape& shape, double offered_qps,
                        uint64_t seed) {
  VenueCatalog catalog =
      BuildServingCatalog(shape.num_venues, shape.max_floors, seed);

  MultiVenueWorkloadConfig workload_config;
  workload_config.num_requests = shape.num_requests;
  workload_config.seed = seed + 1;
  workload_config.options.use_snapshot_cache = true;  // serving shape
  auto workload = GenerateMultiVenueWorkload(catalog, workload_config);
  if (!workload.ok()) DieStatus("workload generation failed", workload.status());

  ArrivalScheduleConfig arrival_config;
  arrival_config.offered_qps = offered_qps;
  arrival_config.seed = seed + 2;
  auto arrivals = GenerateOpenLoopArrivals(shape.num_requests, arrival_config);
  if (!arrivals.ok()) DieStatus("arrival generation failed", arrivals.status());

  auto service = MakeQueryService(std::move(catalog), shape.service);
  if (!service.ok()) DieStatus("MakeQueryService failed", service.status());

  // Warm the shard snapshot caches so the measured latencies are the
  // steady serving state, not first-touch Graph_Update builds.
  {
    std::vector<std::future<StatusOr<QueryResult>>> warmers;
    for (int i = 0; i < std::min(shape.num_requests, 32); ++i) {
      warmers.push_back(
          (*service)->Submit((*workload)[static_cast<size_t>(i)],
                             shape.deadline_micros, QosClass::kInteractive));
    }
    for (auto& f : warmers) (void)f.get();
  }
  const size_t warm_served = (*service)->Stats().served;

  using SteadyClock = std::chrono::steady_clock;
  std::vector<std::future<StatusOr<QueryResult>>> futures;
  futures.reserve(static_cast<size_t>(shape.num_requests));
  const SteadyClock::time_point start = SteadyClock::now();
  for (int i = 0; i < shape.num_requests; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>((*arrivals)[static_cast<size_t>(i)])));
    futures.push_back((*service)->Submit((*workload)[static_cast<size_t>(i)],
                                         shape.deadline_micros,
                                         QosClass::kInteractive));
  }
  for (auto& f : futures) (void)f.get();
  const double seconds =
      std::chrono::duration<double>(SteadyClock::now() - start).count();

  (*service)->Shutdown();
  LoadResult result;
  result.offered_qps = offered_qps;
  result.stats = (*service)->Stats();
  result.achieved_kqps =
      static_cast<double>(result.stats.served - warm_served) / seconds / 1e3;
  return result;
}

void PrintServiceDetail(const ServiceStats& stats) {
  std::printf("\n== service detail (heaviest load point) ==\n");
  std::printf("queue high-water: %zu   batches: %zu\n",
              stats.queue_high_water, stats.batches);
  std::printf("batch-size histogram:");
  size_t coalesced = 0;
  for (size_t b = 1; b < stats.batch_size_counts.size(); ++b) {
    if (stats.batch_size_counts[b] == 0) continue;
    std::printf("  %zux%zu", b, stats.batch_size_counts[b]);
    coalesced += b * stats.batch_size_counts[b];
  }
  std::printf("  (%zu dispatched)\n", coalesced);
  std::printf("latency p50 %.0f us, p99 %.0f us over %zu served\n",
              stats.latency.P50(), stats.latency.P99(), stats.latency.total);
  std::printf("catalog: %zu queries, %zu cache hits / %zu misses / "
              "%zu evictions, %s resident masks\n",
              stats.catalog.total_queries, stats.catalog.total_cache.hits,
              stats.catalog.total_cache.misses,
              stats.catalog.total_cache.evictions,
              FormatBytes(stats.catalog.total_cache.resident_bytes).c_str());
}

// The quiesced-accounting invariant from ServiceStats' contract; the CI
// smoke run turns any violation into a red build.
bool CheckInvariants(const ServiceStats& stats) {
  bool ok = true;
  const size_t accounted = stats.rejected_queue_full + stats.rejected_expired +
                           stats.rejected_invalid + stats.rejected_shutdown +
                           stats.shed_displaced + stats.shed_infeasible +
                           stats.timed_out_in_queue +
                           stats.timed_out_in_flight + stats.served;
  if (accounted != stats.submitted) {
    std::fprintf(stderr,
                 "invariant violated: %zu submitted but %zu accounted\n",
                 stats.submitted, accounted);
    ok = false;
  }
  if (stats.served == 0) {
    std::fprintf(stderr, "invariant violated: nothing was served\n");
    ok = false;
  }
  if (stats.latency.total != stats.served) {
    std::fprintf(stderr,
                 "invariant violated: %zu latency samples for %zu served\n",
                 stats.latency.total, stats.served);
    ok = false;
  }
  if (stats.queue_depth != 0) {
    std::fprintf(stderr, "invariant violated: %zu requests still queued\n",
                 stats.queue_depth);
    ok = false;
  }
  return ok;
}

int Run(bool smoke, uint64_t seed) {
  RunShape shape;
  shape.service.num_workers = smoke ? 2 : 4;
  shape.service.queue_capacity = smoke ? 64 : 512;
  std::vector<double> loads = {500, 2000, 8000, 32000};
  if (smoke) {
    shape.num_venues = 2;
    shape.max_floors = 1;
    shape.num_requests = 96;
    loads = {50000};
  }

  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  std::printf("seed: %llu (rerun with --seed=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  // Stats columns are service-lifetime, so they include the cache
  // warm-up submissions; the achieved column measures the paced phase
  // only.
  std::printf("\n== bench_service: open-loop Zipf traffic, %d requests "
              "(+%d warm-up), %d workers, 50 ms deadline ==\n",
              shape.num_requests, std::min(shape.num_requests, 32),
              shape.service.num_workers);
  std::printf("%-10s %9s %8s %9s %7s %9s %9s %9s %11s\n", "offered",
              "submitted", "served", "rej-full", "shed", "timeout", "p50",
              "p99", "achieved");

  bool ok = true;
  ServiceStats last;
  for (double qps : loads) {
    const LoadResult r = RunLoadPoint(shape, qps, seed);
    const ServiceStats& s = r.stats;
    std::printf(
        "%-7.0f1/s %9zu %8zu %9zu %7zu %9zu %7.0fus %7.0fus %8.1fkq/s\n",
        r.offered_qps, s.submitted, s.served, s.rejected_queue_full,
        s.shed_displaced + s.shed_infeasible,
        s.timed_out_in_queue + s.timed_out_in_flight, s.latency.P50(),
        s.latency.P99(), r.achieved_kqps);
    ok = CheckInvariants(s) && ok;
    last = s;
  }
  PrintServiceDetail(last);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace itspq

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const uint64_t seed = itspq::bench::ParseSeedFlag(argc, argv, 2020);
  return itspq::bench::Run(smoke, seed);
}
