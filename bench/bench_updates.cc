// The update plane's two costs: (1) how long one online ATI mutation
// takes to commit — incremental re-derivation plus RCU publication —
// against the from-scratch VersionedGraph rebuild it replaces, and
// (2) what a live write stream does to read throughput, by serving an
// open-loop query load through a QueryService while SubmitUpdate
// traffic flows concurrently (no drain, no pause).
//
// Part 1 columns: apply-latency mean/p50/p99 µs over a Zipf-skewed
// Poisson update stream, totals of snapshots carried / rebased /
// invalidated across the stream, and the mean full-rebuild time for
// scale. Part 2 rows: the same offered query load with zero writers
// and with the update stream running, so the delta is the write tax.
//
// `--smoke` shrinks to a CI-sized run and exits non-zero if the update
// invariants break (epoch/counter coherence, carried > 0 on a warmed
// catalog, service accounting). `--seed=N` reproduces a run exactly.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "gen/workload_gen.h"
#include "query/sharded_router.h"
#include "server/query_service.h"
#include "update/versioned_graph.h"

namespace itspq {
namespace bench {
namespace {

[[noreturn]] void DieStatus(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

using SteadyClock = std::chrono::steady_clock;

double MicrosSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - start)
      .count();
}

double Quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0;
  std::sort(sorted.begin(), sorted.end());
  const size_t i = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(i, sorted.size() - 1)];
}

struct RunShape {
  int num_venues = 3;
  int max_floors = 2;
  int num_updates = 128;
  int num_requests = 2048;
  double offered_qps = 8000;
  ServiceOptions service;
};

// Warms every shard's snapshot store to full residency so the apply
// loop below measures carry against a realistic steady serving state.
void WarmSnapshotStores(const VenueCatalog& catalog) {
  for (size_t v = 0; v < catalog.NumVenues(); ++v) {
    const std::shared_ptr<const VersionedGraph> world =
        catalog.world(static_cast<VenueId>(v));
    const SnapshotStore* store = world->router().snapshot_store();
    if (store == nullptr) continue;
    for (size_t i = 0; i < store->NumIntervals(); ++i) store->Get(i);
  }
}

struct ApplyResult {
  std::vector<double> latencies_micros;
  size_t applied = 0;
  size_t carried = 0;
  size_t rebased = 0;
  size_t invalidated = 0;
};

ApplyResult ApplyStream(VenueCatalog* catalog,
                        const std::vector<TimedAtiUpdate>& stream) {
  ApplyResult result;
  result.latencies_micros.reserve(stream.size());
  for (const TimedAtiUpdate& timed : stream) {
    const SteadyClock::time_point start = SteadyClock::now();
    auto outcome = catalog->ApplyAtiUpdate(timed.update);
    result.latencies_micros.push_back(MicrosSince(start));
    if (!outcome.ok()) DieStatus("ApplyAtiUpdate failed", outcome.status());
    ++result.applied;
    result.carried += outcome->snapshots_carried;
    result.rebased += outcome->snapshots_rebased;
    result.invalidated += outcome->intervals_invalidated;
  }
  return result;
}

// Mean from-scratch VersionedGraph::Build time across the catalog's
// venues — the cost one online apply avoids.
double MeanRebuildMicros(const VenueCatalog& catalog) {
  double total = 0;
  for (size_t v = 0; v < catalog.NumVenues(); ++v) {
    Venue copy = catalog.venue(static_cast<VenueId>(v));
    const SteadyClock::time_point start = SteadyClock::now();
    auto rebuilt = VersionedGraph::Build(std::move(copy),
                                         TvCheck::kAsynchronousStrict);
    const double micros = MicrosSince(start);
    if (!rebuilt.ok()) DieStatus("rebuild failed", rebuilt.status());
    total += micros;
  }
  return total / static_cast<double>(catalog.NumVenues());
}

bool RunApplyLatency(const RunShape& shape, uint64_t seed, bool smoke) {
  VenueCatalog catalog =
      BuildServingCatalog(shape.num_venues, shape.max_floors, seed);
  WarmSnapshotStores(catalog);

  UpdateStreamConfig stream_config;
  stream_config.num_updates = shape.num_updates;
  stream_config.seed = seed + 3;
  auto stream = GenerateUpdateStream(catalog, stream_config);
  if (!stream.ok()) DieStatus("update stream generation failed", stream.status());

  const double rebuild_micros = MeanRebuildMicros(catalog);
  const ApplyResult result = ApplyStream(&catalog, *stream);

  double mean = 0;
  for (double m : result.latencies_micros) mean += m;
  mean /= static_cast<double>(result.latencies_micros.size());

  std::printf("\n== part 1: update-apply latency, %d updates over %d venues "
              "==\n",
              shape.num_updates, shape.num_venues);
  std::printf("apply  mean %8.1f us   p50 %8.1f us   p99 %8.1f us\n", mean,
              Quantile(result.latencies_micros, 0.50),
              Quantile(result.latencies_micros, 0.99));
  std::printf("vs     full rebuild mean %8.1f us  (%.1fx)\n", rebuild_micros,
              rebuild_micros / std::max(mean, 1e-9));
  std::printf("snapshots: %zu carried, %zu rebased, %zu invalidated across "
              "the stream\n",
              result.carried, result.rebased, result.invalidated);

  bool ok = true;
  const CatalogStats stats = catalog.Stats();
  if (stats.total_updates_applied != static_cast<size_t>(shape.num_updates)) {
    std::fprintf(stderr, "invariant violated: %d updates sent, %zu applied\n",
                 shape.num_updates, stats.total_updates_applied);
    ok = false;
  }
  uint64_t epoch_total = 0;
  for (size_t v = 0; v < catalog.NumVenues(); ++v) {
    epoch_total += catalog.epoch(static_cast<VenueId>(v));
  }
  if (epoch_total != static_cast<uint64_t>(shape.num_updates)) {
    std::fprintf(stderr,
                 "invariant violated: epochs sum to %llu, expected %d\n",
                 static_cast<unsigned long long>(epoch_total),
                 shape.num_updates);
    ok = false;
  }
  if (smoke && result.carried == 0) {
    std::fprintf(stderr,
                 "invariant violated: warmed catalog carried no snapshots\n");
    ok = false;
  }
  return ok;
}

struct LoadResult {
  double achieved_kqps = 0;
  ServiceStats stats;
};

// One serving point: open-loop queries at `offered_qps`, with an update
// stream running concurrently when `with_writes` is set. The service
// never drains or pauses while writes flow.
LoadResult RunLoadPoint(const RunShape& shape, bool with_writes,
                        uint64_t seed) {
  VenueCatalog catalog =
      BuildServingCatalog(shape.num_venues, shape.max_floors, seed);

  MultiVenueWorkloadConfig workload_config;
  workload_config.num_requests = shape.num_requests;
  workload_config.seed = seed + 1;
  workload_config.options.use_snapshot_cache = true;
  auto workload = GenerateMultiVenueWorkload(catalog, workload_config);
  if (!workload.ok()) DieStatus("workload generation failed", workload.status());

  ArrivalScheduleConfig arrival_config;
  arrival_config.offered_qps = shape.offered_qps;
  arrival_config.seed = seed + 2;
  auto arrivals = GenerateOpenLoopArrivals(shape.num_requests, arrival_config);
  if (!arrivals.ok()) DieStatus("arrival generation failed", arrivals.status());

  std::vector<TimedAtiUpdate> stream;
  if (with_writes) {
    UpdateStreamConfig stream_config;
    stream_config.num_updates = shape.num_updates;
    stream_config.seed = seed + 3;
    // Pace the writers to span the query phase.
    stream_config.offered_ups =
        static_cast<double>(shape.num_updates) /
        std::max(static_cast<double>(shape.num_requests) / shape.offered_qps,
                 1e-3);
    auto generated = GenerateUpdateStream(catalog, stream_config);
    if (!generated.ok()) {
      DieStatus("update stream generation failed", generated.status());
    }
    stream = *std::move(generated);
  }

  auto service = MakeQueryService(std::move(catalog), shape.service);
  if (!service.ok()) DieStatus("MakeQueryService failed", service.status());

  // Writer thread submits on the stream's own Poisson schedule.
  std::thread writer;
  std::vector<std::future<Status>> commits;
  const SteadyClock::time_point start = SteadyClock::now();
  if (with_writes) {
    commits.reserve(stream.size());
    writer = std::thread([&] {
      for (const TimedAtiUpdate& timed : stream) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(timed.offset_seconds)));
        commits.push_back((*service)->SubmitUpdate(timed.update));
      }
    });
  }

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  futures.reserve(static_cast<size_t>(shape.num_requests));
  for (int i = 0; i < shape.num_requests; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(
                        (*arrivals)[static_cast<size_t>(i)])));
    futures.push_back((*service)->Submit(
        (*workload)[static_cast<size_t>(i)],
        std::numeric_limits<double>::infinity(), QosClass::kInteractive));
  }
  for (auto& f : futures) (void)f.get();
  const double seconds =
      std::chrono::duration<double>(SteadyClock::now() - start).count();

  if (with_writes) {
    writer.join();
    for (std::future<Status>& commit : commits) {
      const Status status = commit.get();
      if (!status.ok()) DieStatus("SubmitUpdate failed", status);
    }
  }
  (*service)->Shutdown();

  LoadResult result;
  result.stats = (*service)->Stats();
  result.achieved_kqps =
      static_cast<double>(result.stats.served) / seconds / 1e3;
  return result;
}

bool CheckServiceInvariants(const ServiceStats& stats, bool with_writes,
                            int num_updates) {
  bool ok = true;
  const size_t accounted = stats.rejected_queue_full + stats.rejected_expired +
                           stats.rejected_shutdown + stats.timed_out_in_queue +
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
  if (stats.updates_submitted !=
      stats.updates_applied + stats.updates_rejected) {
    std::fprintf(stderr,
                 "invariant violated: %zu updates submitted, %zu applied + "
                 "%zu rejected\n",
                 stats.updates_submitted, stats.updates_applied,
                 stats.updates_rejected);
    ok = false;
  }
  const size_t expected_updates =
      with_writes ? static_cast<size_t>(num_updates) : 0;
  if (stats.updates_submitted != expected_updates) {
    std::fprintf(stderr,
                 "invariant violated: %zu updates submitted, expected %zu\n",
                 stats.updates_submitted, expected_updates);
    ok = false;
  }
  if (with_writes && stats.updates_applied == 0) {
    std::fprintf(stderr, "invariant violated: no update committed\n");
    ok = false;
  }
  return ok;
}

bool RunReadUnderWrite(const RunShape& shape, uint64_t seed) {
  std::printf("\n== part 2: read throughput under write load, %.0f q/s "
              "offered, %d requests ==\n",
              shape.offered_qps, shape.num_requests);
  std::printf("%-12s %9s %8s %9s %8s %9s %9s %11s\n", "writers", "submitted",
              "served", "updates", "rej-full", "p50", "p99", "achieved");

  bool ok = true;
  for (const bool with_writes : {false, true}) {
    const LoadResult r = RunLoadPoint(shape, with_writes, seed);
    const ServiceStats& s = r.stats;
    std::printf("%-12s %9zu %8zu %9zu %8zu %7.0fus %7.0fus %8.1fkq/s\n",
                with_writes ? "update-strm" : "none", s.submitted, s.served,
                s.updates_applied, s.rejected_queue_full, s.latency.P50(),
                s.latency.P99(), r.achieved_kqps);
    ok = CheckServiceInvariants(s, with_writes, shape.num_updates) && ok;
  }
  return ok;
}

int Run(bool smoke, uint64_t seed) {
  RunShape shape;
  shape.service.num_workers = smoke ? 2 : 4;
  shape.service.queue_capacity = smoke ? 64 : 512;
  shape.service.update_queue_capacity = 256;
  if (smoke) {
    shape.num_venues = 2;
    shape.max_floors = 1;
    shape.num_updates = 16;
    shape.num_requests = 96;
    shape.offered_qps = 50000;
  }

  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  std::printf("seed: %llu (rerun with --seed=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));

  bool ok = RunApplyLatency(shape, seed, smoke);
  ok = RunReadUnderWrite(shape, seed) && ok;
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
  const uint64_t seed = itspq::bench::ParseSeedFlag(argc, argv, 4242);
  return itspq::bench::Run(smoke, seed);
}
