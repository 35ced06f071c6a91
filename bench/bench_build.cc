// Construction cost: venue generation, temporal-variation assignment,
// IT-Graph build, and checkpoint derivation, as the mall grows from one to
// five floors — plus the fleet cold-start experiment: booting a
// city-scale catalog of serving worlds (geometry + compiled graph +
// checkpoint ledger) from `.itspq` files versus generate+build-at-boot,
// and serving a Zipf workload through a residency-budgeted lazy catalog
// versus a fully resident one.
//
// Flags:
//   --seed=S          fleet + workload seed (default 7)
//   --fleet=N         fleet size for the cold-start experiment (256;
//                     12 under --smoke unless given explicitly)
//   --artifacts=DIR   where the packed fleet is written (pr7_artifacts)
//   --json=PATH       machine-readable results (e.g. BENCH_pr7.json)
//   --smoke           CI-sized run; exits non-zero unless artifact boot
//                     beats eager boot, the lazy catalog answers
//                     bit-identically, and resident bytes respect the
//                     budget

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <memory>

#include "artifact/artifact.h"
#include "bench/bench_common.h"
#include "common/memory_tracker.h"
#include "common/stats.h"
#include "query/sharded_router.h"
#include "query/venue_catalog.h"
#include "update/versioned_graph.h"

namespace itspq {
namespace bench {
namespace {

void RunConstructionTable() {
  std::printf(
      "\n== Construction cost vs floors (paper mall) ==\n"
      "%-8s %10s %10s %12s %12s %12s %14s %14s\n",
      "floors", "parts", "doors", "gen ms", "atis ms", "graph ms",
      "venue mem", "graph mem");
  for (int floors = 1; floors <= 5; ++floors) {
    MallConfig mc = MallConfig::Paper();
    mc.floors = floors;
    Timer t_gen;
    auto mall = GenerateMall(mc);
    const double gen_ms = t_gen.ElapsedMillis();
    if (!mall.ok()) return;

    Timer t_ati;
    AtiGenConfig ac;
    auto varied = AssignTemporalVariations(*mall, ac);
    const double ati_ms = t_ati.ElapsedMillis();
    if (!varied.ok()) return;

    Timer t_graph;
    auto graph = ItGraph::Build(*varied);
    if (!graph.ok()) return;
    const CheckpointSet cps = CheckpointSet::FromGraph(*graph);
    const double graph_ms = t_graph.ElapsedMillis();

    std::printf("%-8d %10zu %10zu %9.2f ms %9.2f ms %9.2f ms %14s %14s\n",
                floors, varied->NumPartitions(), varied->NumDoors(), gen_ms,
                ati_ms, graph_ms,
                FormatBytes(varied->MemoryUsage()).c_str(),
                FormatBytes(graph->MemoryUsage()).c_str());
  }
}

constexpr const char* kFleetStrategy = "itg-a+";

struct FleetResult {
  size_t fleet_size = 0;
  uint64_t seed = 0;
  double generate_ms = 0;       // fleet generation alone
  double eager_graph_ms = 0;    // graph compile + router build, all shards
  double eager_boot_ms = 0;     // generate + build the full world in-process
  double artifact_build_ms = 0; // offline: generate + encode + write
  double artifact_boot_ms = 0;  // load the full world from disk
  double cold_start_speedup = 0;
  size_t artifact_bytes = 0;
  size_t resident_bytes_full = 0;   // whole fleet loaded
  size_t residency_budget_bytes = 0;
  size_t max_resident_lazy_bytes = 0;  // high-water while serving
  size_t lazy_loads = 0;
  size_t lazy_evictions = 0;
  double cold_load_p50_us = 0;
  double cold_load_p99_us = 0;
  size_t requests = 0;
  size_t mismatches = 0;
  bool ok = false;
};

FleetResult RunFleetColdStart(size_t fleet_size, uint64_t seed,
                              const std::string& artifacts_dir, bool smoke) {
  FleetResult result;
  result.fleet_size = fleet_size;
  result.seed = seed;

  std::printf("\n== Fleet cold start: artifacts vs generate+build (%zu "
              "venues, seed %llu) ==\n",
              fleet_size, static_cast<unsigned long long>(seed));

  FleetConfig config;
  config.num_venues = static_cast<int>(fleet_size);
  config.seed = seed;

  // Eager boot: what a server pays to assemble the serving world
  // in-process — generate the fleet, then build every shard (graph
  // compile, checkpoint ledger, router). Both sides of the comparison
  // end with the same published worlds.
  Timer eager_timer;
  auto fleet = GenerateVenueFleet(config);
  if (!fleet.ok()) {
    std::printf("fleet generation failed: %s\n",
                fleet.status().ToString().c_str());
    return result;
  }
  result.generate_ms = eager_timer.ElapsedMillis();
  VenueCatalog eager;
  for (Venue& venue : *fleet) {
    auto id = eager.AddVenue(std::move(venue), kFleetStrategy);
    if (!id.ok()) {
      std::printf("AddVenue failed: %s\n", id.status().ToString().c_str());
      return result;
    }
  }
  result.eager_boot_ms = eager_timer.ElapsedMillis();
  result.eager_graph_ms = result.eager_boot_ms - result.generate_ms;

  // Offline build: regenerate (artifacts must not depend on the eager
  // catalog's state) and pack. This is the cost itspq_build pays once
  // per format version, not the serving boot.
  (void)std::system(("mkdir -p " + artifacts_dir).c_str());
  Timer build_timer;
  auto source = GenerateVenueFleet(config);
  if (!source.ok()) return result;
  std::vector<std::string> paths;
  for (size_t i = 0; i < source->size(); ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "/venue_%04zu.itspq", i);
    paths.push_back(artifacts_dir + name);
    Status written = WriteVenueArtifact(paths.back(), (*source)[i]);
    if (!written.ok()) {
      std::printf("WriteVenueArtifact failed: %s\n",
                  written.ToString().c_str());
      return result;
    }
  }
  result.artifact_build_ms = build_timer.ElapsedMillis();

  // Artifact boot: reconstruct the same worlds from disk — decode, then
  // compile the ATI rows and the ledger and publish epoch 0.
  Timer boot_timer;
  std::vector<std::shared_ptr<const VersionedGraph>> worlds;
  worlds.reserve(paths.size());
  for (const std::string& path : paths) {
    auto decoded = LoadVenueArtifact(path);
    if (!decoded.ok()) {
      std::printf("LoadVenueArtifact failed: %s\n",
                  decoded.status().ToString().c_str());
      return result;
    }
    auto world = BuildWorldFromArtifact(*std::move(decoded), kFleetStrategy);
    if (!world.ok()) {
      std::printf("BuildWorldFromArtifact failed: %s\n",
                  world.status().ToString().c_str());
      return result;
    }
    worlds.push_back(*std::move(world));
  }
  result.artifact_boot_ms = boot_timer.ElapsedMillis();
  result.cold_start_speedup =
      result.artifact_boot_ms > 0
          ? result.eager_boot_ms / result.artifact_boot_ms
          : 0;
  for (const auto& world : worlds) {
    result.resident_bytes_full += world->MemoryUsage();
  }
  for (const std::string& path : paths) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f != nullptr) {
      std::fseek(f, 0, SEEK_END);
      result.artifact_bytes += static_cast<size_t>(std::ftell(f));
      std::fclose(f);
    }
  }

  std::printf("%-34s %12s\n", "phase", "wall ms");
  std::printf("%-34s %12.1f\n", "generate fleet", result.generate_ms);
  std::printf("%-34s %12.1f\n", "eager: graph+router build",
              result.eager_graph_ms);
  std::printf("%-34s %12.1f\n", "eager boot total (gen+build)",
              result.eager_boot_ms);
  std::printf("%-34s %12.1f\n", "offline pack (once)",
              result.artifact_build_ms);
  std::printf("%-34s %12.1f\n", "artifact boot (load full world)",
              result.artifact_boot_ms);
  std::printf("cold-start speedup: %.1fx (artifacts %s on disk, %s "
              "resident)\n",
              result.cold_start_speedup,
              FormatBytes(result.artifact_bytes).c_str(),
              FormatBytes(result.resident_bytes_full).c_str());
  worlds.clear();

  // Lazy serve: a fresh lazy catalog under a budget of ~25% of the
  // fully resident fleet, against the eager catalog as ground truth.
  // The workload is generated on the eager catalog (the lazy one is
  // cold — that is the point) and Zipf-skewed so there is a hot head
  // worth keeping resident and a cold tail worth evicting.
  VenueCatalog lazy;
  for (const std::string& path : paths) {
    auto id = lazy.AddArtifactShard(path, kFleetStrategy);
    if (!id.ok()) return result;
  }
  const size_t budget = std::max<size_t>(result.resident_bytes_full / 4, 1);
  result.residency_budget_bytes = budget;
  Status budgeted = lazy.SetResidencyBudget(budget, "lru");
  if (!budgeted.ok()) {
    std::printf("SetResidencyBudget failed: %s\n",
                budgeted.ToString().c_str());
    return result;
  }

  MultiVenueWorkloadConfig workload;
  workload.num_requests = smoke ? 256 : 2048;
  workload.seed = seed + 1;
  workload.zipf_exponent = 1.0;
  workload.pairs_per_venue = 4;
  auto requests = GenerateMultiVenueWorkload(eager, workload);
  if (!requests.ok()) {
    std::printf("workload generation failed: %s\n",
                requests.status().ToString().c_str());
    return result;
  }
  result.requests = requests->size();

  ShardedRouter truth(eager), served(lazy);
  QueryContext truth_context, served_context;
  Timer serve_timer;
  size_t served_count = 0;
  for (const QueryRequest& request : *requests) {
    auto expect = truth.Route(request, &truth_context);
    auto got = served.Route(request, &served_context);
    const bool same =
        expect.ok() == got.ok() &&
        (!expect.ok() ||
         (expect->found == got->found &&
          (!expect->found ||
           expect->path.length_m() == got->path.length_m())));
    if (!same) ++result.mismatches;
    // Stats() walks every shard; sampling every 8th request keeps the
    // high-water probe out of the serve numbers (the per-request bound
    // itself is asserted exhaustively in lazy_catalog_test).
    if (++served_count % 8 == 0) {
      result.max_resident_lazy_bytes =
          std::max(result.max_resident_lazy_bytes,
                   lazy.Stats().resident_lazy_bytes);
    }
  }
  result.max_resident_lazy_bytes = std::max(
      result.max_resident_lazy_bytes, lazy.Stats().resident_lazy_bytes);
  const double serve_ms = serve_timer.ElapsedMillis();

  const CatalogStats stats = lazy.Stats();
  result.lazy_loads = stats.total_loads;
  result.lazy_evictions = stats.total_shard_evictions;
  result.cold_load_p50_us = stats.load_latency.P50();
  result.cold_load_p99_us = stats.load_latency.P99();

  std::printf(
      "\nlazy serve @ 25%% budget (%s): %zu requests in %.1f ms, "
      "%zu mismatches\n",
      FormatBytes(budget).c_str(), result.requests, serve_ms,
      result.mismatches);
  std::printf(
      "  loads %zu (fleet %zu), evictions %zu, resident high-water %s, "
      "cold-load p50 %.0f us p99 %.0f us\n",
      result.lazy_loads, fleet_size, result.lazy_evictions,
      FormatBytes(result.max_resident_lazy_bytes).c_str(),
      result.cold_load_p50_us, result.cold_load_p99_us);

  result.ok = result.mismatches == 0 &&
              result.max_resident_lazy_bytes <= budget &&
              result.cold_start_speedup > 1.0;
  return result;
}

void WriteJson(const FleetResult& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fleet_cold_start\",\n"
               "  \"fleet_size\": %zu,\n"
               "  \"seed\": %llu,\n"
               "  \"strategy\": \"%s\",\n"
               "  \"generate_ms\": %.3f,\n"
               "  \"eager_graph_ms\": %.3f,\n"
               "  \"eager_boot_ms\": %.3f,\n"
               "  \"artifact_build_ms\": %.3f,\n"
               "  \"artifact_boot_ms\": %.3f,\n"
               "  \"cold_start_speedup\": %.2f,\n"
               "  \"artifact_bytes\": %zu,\n"
               "  \"resident_bytes_full\": %zu,\n"
               "  \"residency_budget_bytes\": %zu,\n"
               "  \"max_resident_lazy_bytes\": %zu,\n"
               "  \"lazy_loads\": %zu,\n"
               "  \"lazy_evictions\": %zu,\n"
               "  \"cold_load_p50_us\": %.1f,\n"
               "  \"cold_load_p99_us\": %.1f,\n"
               "  \"requests\": %zu,\n"
               "  \"mismatches\": %zu,\n"
               "  \"ok\": %s\n"
               "}\n",
               r.fleet_size, static_cast<unsigned long long>(r.seed),
               kFleetStrategy, r.generate_ms, r.eager_graph_ms,
               r.eager_boot_ms,
               r.artifact_build_ms, r.artifact_boot_ms, r.cold_start_speedup,
               r.artifact_bytes, r.resident_bytes_full,
               r.residency_budget_bytes, r.max_resident_lazy_bytes,
               r.lazy_loads, r.lazy_evictions, r.cold_load_p50_us,
               r.cold_load_p99_us, r.requests, r.mismatches,
               r.ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace itspq

int main(int argc, char** argv) {
  bool smoke = false;
  long fleet_size = -1;
  std::string artifacts_dir = "pr7_artifacts";
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--fleet=", 8) == 0) {
      fleet_size = std::atol(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--artifacts=", 12) == 0) {
      artifacts_dir = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }
  const uint64_t seed = itspq::bench::ParseSeedFlag(argc, argv, 7);
  if (fleet_size <= 0) fleet_size = smoke ? 12 : 256;

  if (!smoke) itspq::bench::RunConstructionTable();
  const itspq::bench::FleetResult result = itspq::bench::RunFleetColdStart(
      static_cast<size_t>(fleet_size), seed, artifacts_dir, smoke);
  if (!json_path.empty()) itspq::bench::WriteJson(result, json_path);
  if (smoke && !result.ok) {
    std::printf("SMOKE FAILED: mismatches=%zu speedup=%.2f high_water=%zu "
                "budget=%zu\n",
                result.mismatches, result.cold_start_speedup,
                result.max_resident_lazy_bytes,
                result.residency_budget_bytes);
    return 1;
  }
  return 0;
}
