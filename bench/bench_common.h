#ifndef ITSPQ_BENCH_BENCH_COMMON_H_
#define ITSPQ_BENCH_BENCH_COMMON_H_

// Shared harness for the figure-reproduction benches.
//
// Experimental setup (paper §III): a 5-floor synthetic mall (705
// partitions, 1120 doors), temporal variations drawn from a synthetic
// shop-hours pool with |T| checkpoints, five (ps, pt) query pairs per
// δs2t setting, each query run ten times, reporting average search time
// (µs) and memory cost (KB). Defaults (bold in Table II): |T| = 8,
// δs2t = 1500 m, t = 12:00.
//
// Strategies are resolved by name ("itg-s", "itg-a", "itg-a+", "snap",
// "ntv") via MakeRouterOrDie; per-call knobs travel in QueryOptions.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"  // micro_core.cc takes Rng from this header
#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/query_gen.h"
#include "gen/venue_gen.h"
#include "gen/workload_gen.h"
#include "itgraph/itgraph.h"
#include "query/router.h"
#include "query/strategies.h"
#include "query/venue_catalog.h"
#include "venue/venue.h"

namespace itspq {
namespace bench {

/// Table II defaults.
inline constexpr int kDefaultT = 8;
inline constexpr double kDefaultS2t = 1500;
inline constexpr int kDefaultHour = 12;
inline constexpr int kRunsPerQuery = 10;
inline constexpr int kPairsPerSetting = 5;

/// A fully built experimental world: venue + IT-Graph. Routers are
/// created per strategy with MakeRouterOrDie.
struct World {
  std::unique_ptr<Venue> venue;
  std::unique_ptr<ItGraph> graph;
  std::vector<double> checkpoints;
};

/// Builds the paper's default world with `checkpoint_count = |T|`.
/// `floors` defaults to the paper's 5; smaller values speed up smoke runs.
World BuildWorld(int checkpoint_count = kDefaultT, int floors = 5,
                 uint64_t seed = 42);

/// Resolves `name` through MakeRouter; aborts the bench on an unknown
/// strategy. `options` carries the snapshot-store budget for the cache
/// ablations.
std::unique_ptr<Router> MakeRouterOrDie(
    const World& world, const std::string& name,
    const RouterBuildOptions& options = RouterBuildOptions());

/// Generates the δs2t-controlled workload on `world` (5 pairs by default).
std::vector<QueryInstance> MakeWorkload(const World& world, double s2t,
                                        int pairs = kPairsPerSetting,
                                        uint64_t seed = 99);

/// Aggregate of one (method, setting) cell: averages over pairs x runs.
struct Cell {
  double mean_micros = 0;
  double mean_memory_kb = 0;
  double found_fraction = 0;
  double mean_doors_popped = 0;
  double mean_graph_updates = 0;
};

/// Routes `queries` at time `t` under `options`, `runs` times each,
/// reusing one QueryContext.
Cell RunCell(const Router& router, const std::vector<QueryInstance>& queries,
             Instant t, const QueryOptions& options = QueryOptions(),
             int runs = kRunsPerQuery);

/// The serving benches' shared fleet: `num_venues` small heterogeneous
/// malls (1..max_floors floors, seed-threaded for reproducibility),
/// every venue behind "itg-a+" so the stats reports show real
/// snapshot-store traffic. Aborts the bench on setup failure.
VenueCatalog BuildServingCatalog(int num_venues, int max_floors,
                                 uint64_t seed);

/// Parses the shared reproducibility flag "--seed=N" out of argv,
/// returning `fallback` when absent or malformed. Benches thread the
/// result through GenerateVenueFleet / GenerateMultiVenueWorkload /
/// BuildWorld so a printed seed reproduces the exact run.
uint64_t ParseSeedFlag(int argc, char** argv, uint64_t fallback);

/// Prints a markdown-ish table header / row.
void PrintHeader(const std::string& title, const std::string& x_label,
                 const std::vector<std::string>& series);
void PrintRow(const std::string& x_value, const std::vector<double>& values,
              const char* unit);

}  // namespace bench
}  // namespace itspq

#endif  // ITSPQ_BENCH_BENCH_COMMON_H_
