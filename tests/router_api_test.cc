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

TEST(RouteBatchTest, AgreesWithSequentialRoute) {
  ApiWorld world = MakeWorld();
  const std::vector<QueryRequest> requests = MakeRequests(world);
  for (const char* name : {"itg-s", "itg-a", "snap"}) {
    auto router = MakeRouter(name, *world.graph);
    ASSERT_TRUE(router.ok());

    QueryContext context;
    std::vector<StatusOr<QueryResult>> sequential;
    for (const QueryRequest& request : requests) {
      sequential.push_back((*router)->Route(request, &context));
    }

    BatchOptions threaded;
    threaded.num_threads = 4;
    const auto batched = (*router)->RouteBatch(requests, threaded);
    ASSERT_EQ(batched.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(batched[i].ok(), sequential[i].ok()) << name << " #" << i;
      if (!batched[i].ok()) continue;
      EXPECT_EQ(batched[i]->found, sequential[i]->found)
          << name << " #" << i;
      if (batched[i]->found) {
        EXPECT_NEAR(batched[i]->path.length_m(),
                    sequential[i]->path.length_m(), 1e-9)
            << name << " #" << i;
      }
    }
  }
}

// Regression: an empty batch must return cleanly — no worker spawn, no
// placeholder slots — whatever the thread option says.
TEST(RouteBatchTest, EmptyRequestVectorReturnsCleanly) {
  ApiWorld world = MakeWorld();
  auto router = MakeRouter("itg-s", *world.graph);
  ASSERT_TRUE(router.ok());

  const std::vector<QueryRequest> empty;
  EXPECT_TRUE((*router)->RouteBatch(empty).empty());

  BatchOptions threaded;
  threaded.num_threads = 8;
  EXPECT_TRUE((*router)->RouteBatch(empty, threaded).empty());
}

// Regression: more worker threads than requests — the pool must clamp
// to the batch size and still answer every slot.
TEST(RouteBatchTest, MoreThreadsThanRequests) {
  ApiWorld world = MakeWorld();
  auto router = MakeRouter("itg-s", *world.graph);
  ASSERT_TRUE(router.ok());
  std::vector<QueryRequest> requests(MakeRequests(world));
  requests.resize(3);

  QueryContext context;
  std::vector<StatusOr<QueryResult>> sequential;
  for (const QueryRequest& request : requests) {
    sequential.push_back((*router)->Route(request, &context));
  }

  for (int num_threads : {16, 1000}) {
    BatchOptions oversubscribed;
    oversubscribed.num_threads = num_threads;
    const auto results = (*router)->RouteBatch(requests, oversubscribed);
    ASSERT_EQ(results.size(), requests.size()) << num_threads;
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << num_threads << " #" << i;
      EXPECT_EQ(results[i]->found, sequential[i]->found)
          << num_threads << " #" << i;
      if (results[i]->found) {
        EXPECT_NEAR(results[i]->path.length_m(),
                    sequential[i]->path.length_m(), 1e-9)
            << num_threads << " #" << i;
      }
    }
  }
}

// The BatchOptions::context contract, pinned: the sequential path may
// reuse the caller's context, the threaded fan-out ignores it entirely
// (workers bring their own), and either way the answers are identical
// and the caller's context remains usable afterwards.
TEST(RouteBatchTest, ThreadedFanOutIgnoresCallerContext) {
  ApiWorld world = MakeWorld();
  auto router = MakeRouter("itg-a+", *world.graph);
  ASSERT_TRUE(router.ok());
  const std::vector<QueryRequest> requests = MakeRequests(world);

  QueryContext context;
  BatchOptions sequential;
  sequential.context = &context;  // scratch-reuse path
  const auto seq_results = (*router)->RouteBatch(requests, sequential);

  BatchOptions threaded;
  threaded.num_threads = 4;
  threaded.context = &context;  // ignored by contract, not raced on
  const auto thr_results = (*router)->RouteBatch(requests, threaded);

  ASSERT_EQ(seq_results.size(), requests.size());
  ASSERT_EQ(thr_results.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(thr_results[i].ok(), seq_results[i].ok()) << "#" << i;
    if (!thr_results[i].ok()) continue;
    EXPECT_EQ(thr_results[i]->found, seq_results[i]->found) << "#" << i;
    if (thr_results[i]->found) {
      EXPECT_EQ(thr_results[i]->path.length_m(),
                seq_results[i]->path.length_m())
          << "#" << i;
    }
  }

  // The context survives both batches: a direct Route through it still
  // answers, and an empty batch with a context touches nothing.
  auto after = (*router)->Route(requests[0], &context);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->found, seq_results[0]->found);
  BatchOptions empty_with_context;
  empty_with_context.context = &context;
  EXPECT_TRUE((*router)->RouteBatch({}, empty_with_context).empty());
}

TEST(RouteBatchTest, ReportsPerRequestErrors) {
  ApiWorld world = MakeWorld();
  auto router = MakeRouter("itg-s", *world.graph);
  ASSERT_TRUE(router.ok());
  std::vector<QueryRequest> requests = MakeRequests(world);
  requests[1].source = IndoorPoint{{1e6, 1e6}, 0};  // outside the venue

  BatchOptions threaded;
  threaded.num_threads = 2;
  const auto results = (*router)->RouteBatch(requests, threaded);
  ASSERT_EQ(results.size(), requests.size());
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[2].ok());
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
