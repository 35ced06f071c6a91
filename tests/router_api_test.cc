#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/query_gen.h"
#include "gen/venue_gen.h"
#include "itgraph/itgraph.h"
#include "query/router.h"
#include "query/strategies.h"

namespace itspq {
namespace {

const char* const kBuiltinStrategies[] = {"itg-s", "itg-a", "itg-a+", "snap",
                                          "ntv"};

struct ApiWorld {
  std::unique_ptr<Venue> venue;
  std::unique_ptr<ItGraph> graph;
  std::vector<QueryInstance> queries;
};

ApiWorld MakeWorld(uint64_t seed = 42) {
  MallConfig mall_config = MallConfig::Paper();
  mall_config.floors = 1;
  mall_config.seed = seed;
  auto mall = GenerateMall(mall_config);
  EXPECT_TRUE(mall.ok());
  AtiGenConfig ati_config;
  ati_config.checkpoint_count = 6;
  ati_config.seed = seed + 1;
  auto varied = AssignTemporalVariations(*mall, ati_config);
  EXPECT_TRUE(varied.ok());

  ApiWorld world;
  world.venue = std::make_unique<Venue>(*std::move(varied));
  auto graph = ItGraph::Build(*world.venue);
  EXPECT_TRUE(graph.ok());
  world.graph = std::make_unique<ItGraph>(*std::move(graph));

  QueryGenConfig query_config;
  query_config.s2t_distance = 700;
  query_config.tolerance = 100;
  query_config.num_pairs = 6;
  query_config.seed = seed + 2;
  auto queries = GenerateQueries(*world.graph, query_config);
  EXPECT_TRUE(queries.ok());
  world.queries = *std::move(queries);
  return world;
}

// A day-spanning mixed workload: several hours per pair, so batches hit
// found and not-found answers and multiple checkpoint intervals.
std::vector<QueryRequest> MakeRequests(const ApiWorld& world) {
  std::vector<QueryRequest> requests;
  for (const QueryInstance& q : world.queries) {
    for (int hour : {3, 8, 12, 18, 21}) {
      requests.push_back(
          QueryRequest{q.ps, q.pt, Instant::FromHMS(hour), QueryOptions()});
    }
  }
  return requests;
}

TEST(StrategyNameTest, ResolvesEveryBuiltinStrategy) {
  ApiWorld world = MakeWorld();
  for (TvCheck check : kTvChecks) {
    const std::string name = TvCheckName(check);
    auto router = MakeRouter(name, *world.graph);
    ASSERT_TRUE(router.ok()) << name;
    EXPECT_EQ((*router)->name(), name);
    // Every strategy answers a midday query through the same interface.
    const QueryInstance& q = world.queries[0];
    auto result = (*router)->Route(
        QueryRequest{q.ps, q.pt, Instant::FromHMS(12), QueryOptions()},
        nullptr);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_TRUE(result->found) << name;
  }
}

TEST(StrategyNameTest, RejectsUnknownName) {
  ApiWorld world = MakeWorld();
  auto router = MakeRouter("itg-z", *world.graph);
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ParseTvCheck("itg-z").status().code(), StatusCode::kNotFound);
}

TEST(StrategyNameTest, TvCheckArrayListsBuiltins) {
  std::vector<std::string> names;
  for (TvCheck check : kTvChecks) names.push_back(TvCheckName(check));
  for (const char* name : kBuiltinStrategies) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

// The thread-safety claim: one shared router, many threads, per-thread
// contexts, mixed per-request options. Run under the asan and tsan
// presets in CI.
TEST(RouterConcurrencyTest, SharedRouterSurvivesHammering) {
  ApiWorld world = MakeWorld();
  const std::vector<QueryRequest> requests = MakeRequests(world);
  for (const char* name : kBuiltinStrategies) {
    auto made = MakeRouter(name, *world.graph);
    ASSERT_TRUE(made.ok());
    const std::unique_ptr<Router> router = std::move(*made);

    // Reference answers, computed single-threaded.
    QueryContext context;
    std::vector<bool> expect_found;
    std::vector<double> expect_length;
    for (const QueryRequest& request : requests) {
      auto r = router->Route(request, &context);
      ASSERT_TRUE(r.ok());
      expect_found.push_back(r->found);
      expect_length.push_back(r->found ? r->path.length_m() : -1.0);
    }

    constexpr int kThreads = 8;
    constexpr int kRounds = 3;
    std::atomic<int> mismatches{0};
    auto worker = [&](int thread_index) {
      QueryContext ctx;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < requests.size(); ++i) {
          QueryRequest request = requests[i];
          // Alternate the shared-cache path so the SnapshotStore sees
          // concurrent first-build races.
          request.options.use_snapshot_cache =
              ((thread_index + round) % 2) == 0;
          auto r = router->Route(request, &ctx);
          if (!r.ok() || r->found != expect_found[i] ||
              (r->found &&
               std::abs(r->path.length_m() - expect_length[i]) > 1e-9)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0) << name;
  }
}

}  // namespace
}  // namespace itspq
