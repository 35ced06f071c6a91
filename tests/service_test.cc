// The serving frontend: MakeQueryService validation, the end-to-end
// replay proof (500 Zipf queries served through QueryService are
// bit-identical to direct Router::Route calls), an 8-thread submit
// hammer the tsan CI preset race-checks, and the admission edge cases —
// backpressure, pre-expired and in-queue-expired deadlines, graceful
// drain, and late-submit rejection. start_paused makes the admission
// tests deterministic: requests queue up while dispatch is held, and
// Shutdown() performs the drain under test.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "common/status.h"
#include "common/time.h"
#include "gen/query_gen.h"
#include "gen/workload_gen.h"
#include "query/router.h"
#include "query/venue_catalog.h"
#include "server/query_service.h"

namespace itspq {
namespace {

const char* const kShardStrategies[] = {"itg-s", "itg-a+", "snap"};

template <typename T>
T ValueOrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

// Three heterogeneous venues behind three different strategies — the
// same fleet shape the sharding suite pins down.
std::vector<Venue> MakeFleet(uint64_t seed) {
  FleetConfig config;
  config.num_venues = 3;
  config.seed = seed;
  config.min_floors = 1;
  config.max_floors = 2;
  config.min_shop_rows = 2;
  config.max_shop_rows = 3;
  return ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
}

VenueCatalog MakeCatalog(uint64_t seed = 7) {
  std::vector<Venue> fleet = MakeFleet(seed);
  VenueCatalog catalog;
  for (size_t i = 0; i < fleet.size(); ++i) {
    (void)ValueOrDie(catalog.AddVenue(std::move(fleet[i]), kShardStrategies[i]),
                     kShardStrategies[i]);
  }
  return catalog;
}

std::vector<QueryRequest> MakeWorkload(const VenueCatalog& catalog,
                                       int num_requests, uint64_t seed = 99) {
  MultiVenueWorkloadConfig config;
  config.num_requests = num_requests;
  config.seed = seed;
  config.pairs_per_venue = 4;
  return ValueOrDie(GenerateMultiVenueWorkload(catalog, config),
                    "GenerateMultiVenueWorkload");
}

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

// An interactive submit through the future adapter, by default with no
// deadline.
std::future<StatusOr<QueryResult>> SubmitInteractive(
    QueryService& service, const QueryRequest& request,
    double deadline_micros = kNoDeadline) {
  return service.Submit(request, deadline_micros, QosClass::kInteractive);
}

std::unique_ptr<QueryService> MakeService(ServiceOptions options,
                                          uint64_t seed = 7) {
  return ValueOrDie(MakeQueryService(MakeCatalog(seed), options),
                    "MakeQueryService");
}

// Bit-identical: same found flag and, when found, the exact same doubles
// in the exact same steps. Routing is deterministic, so the served
// answer must be indistinguishable from a direct call — EQ on doubles,
// not NEAR.
void ExpectBitIdentical(const QueryResult& served, const QueryResult& direct,
                        size_t index) {
  EXPECT_EQ(served.found, direct.found) << "request " << index;
  if (!served.found || !direct.found) return;
  EXPECT_EQ(served.path.length_m(), direct.path.length_m())
      << "request " << index;
  EXPECT_EQ(served.path.departure_seconds(), direct.path.departure_seconds())
      << "request " << index;
  ASSERT_EQ(served.path.steps().size(), direct.path.steps().size())
      << "request " << index;
  for (size_t s = 0; s < served.path.steps().size(); ++s) {
    EXPECT_EQ(served.path.steps()[s].door, direct.path.steps()[s].door)
        << "request " << index << " step " << s;
    EXPECT_EQ(served.path.steps()[s].cumulative_m,
              direct.path.steps()[s].cumulative_m)
        << "request " << index << " step " << s;
    EXPECT_EQ(served.path.steps()[s].arrival_seconds,
              direct.path.steps()[s].arrival_seconds)
        << "request " << index << " step " << s;
  }
}

TEST(MakeQueryServiceTest, ValidatesCatalogAndOptions) {
  VenueCatalog empty;
  auto no_venues = MakeQueryService(std::move(empty));
  ASSERT_FALSE(no_venues.ok());
  EXPECT_EQ(no_venues.status().code(), StatusCode::kFailedPrecondition);

  struct BadCase {
    const char* label;
    ServiceOptions options;
  };
  std::vector<BadCase> bad;
  bad.push_back({"zero capacity", {}});
  bad.back().options.queue_capacity = 0;
  bad.push_back({"zero workers", {}});
  bad.back().options.num_workers = 0;
  for (BadCase& c : bad) {
    auto service = MakeQueryService(MakeCatalog(), c.options);
    ASSERT_FALSE(service.ok()) << c.label;
    EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument)
        << c.label;
  }

  auto service = MakeQueryService(MakeCatalog());
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->catalog().NumVenues(), 3u);
  (*service)->Shutdown();
}

// The end-to-end replay proof: record a 500-query Zipf workload, serve
// it through the full frontend (queue, workers, micro-batching), and
// check every served answer against Router::Route called directly on
// the owned catalog's shard routers.
TEST(QueryServiceReplayTest, ServedAnswersBitIdenticalToDirectRoute) {
  ServiceOptions options;
  options.queue_capacity = 600;  // admit the whole replay, no rejections
  options.num_workers = 3;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 500);

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  futures.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    futures.push_back(SubmitInteractive(*service, request));
  }

  QueryContext direct_context;
  size_t found = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    StatusOr<QueryResult> served = futures[i].get();
    StatusOr<QueryResult> direct =
        service->catalog()
            .router(requests[i].venue_id)
            .Route(requests[i], &direct_context);
    ASSERT_TRUE(served.ok()) << "request " << i << ": "
                             << served.status().ToString();
    ASSERT_TRUE(direct.ok()) << "request " << i;
    ExpectBitIdentical(*served, *direct, i);
    if (served->found) ++found;
  }
  EXPECT_GT(found, 0u);

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.submitted, requests.size());
  EXPECT_EQ(stats.admitted, requests.size());
  EXPECT_EQ(stats.served, requests.size());
  EXPECT_EQ(stats.served_found, found);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.timed_out_in_queue + stats.timed_out_in_flight, 0u);
  EXPECT_EQ(stats.latency.total, stats.served);
  EXPECT_GT(stats.queue_high_water, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  // Every dispatched batch lands in the histogram, none above
  // kMaxBatch, and the sizes sum back to the served count. The direct
  // comparison calls above hit the shard routers, not the composite
  // ShardedRouter, so the catalog traffic counters saw each request
  // exactly once — through the service.
  size_t dispatched = 0;
  ASSERT_EQ(stats.batch_size_counts.size(), kMaxBatch + 1);
  for (size_t b = 1; b < stats.batch_size_counts.size(); ++b) {
    dispatched += b * stats.batch_size_counts[b];
  }
  EXPECT_EQ(dispatched, stats.served);
  EXPECT_EQ(stats.catalog.total_queries, stats.served);
}

// The submit-side concurrency contract: 8 threads hammer Submit on one
// shared service while the workers drain. Runs green under the TSan
// preset; every answer must match the single-threaded reference.
TEST(QueryServiceConcurrencyTest, EightThreadSubmitHammer) {
  ServiceOptions options;
  options.queue_capacity = 2048;  // 8 x 64 x 2 admitted even if workers lag
  options.num_workers = 3;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 64);

  // Single-threaded reference, straight off the shard routers.
  QueryContext context;
  std::vector<StatusOr<QueryResult>> reference;
  for (const QueryRequest& request : requests) {
    reference.push_back(
        service->catalog().router(request.venue_id).Route(request, &context));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 2;
  std::atomic<int> mismatches{0};
  auto worker = [&](int thread_index) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::future<StatusOr<QueryResult>>> futures;
      futures.reserve(requests.size());
      for (size_t i = 0; i < requests.size(); ++i) {
        QueryRequest request = requests[i];
        // Alternate the shared-cache path so the shard stores see
        // concurrent first-build races through the service too.
        request.options.use_snapshot_cache =
            ((thread_index + round) % 2) == 0;
        futures.push_back(SubmitInteractive(*service, request));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        StatusOr<QueryResult> served = futures[i].get();
        if (!served.ok() || !reference[i].ok() ||
            served->found != reference[i]->found ||
            (served->found &&
             served->path.length_m() != reference[i]->path.length_m())) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  const size_t total = requests.size() * kThreads * kRounds;
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.served, total);  // capacity held: nothing rejected
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.latency.total, total);
}

TEST(QueryServiceAdmissionTest, QueueFullRejectsWithResourceExhausted) {
  ServiceOptions options;
  options.queue_capacity = 4;
  options.num_workers = 1;
  options.start_paused = true;  // hold dispatch so the queue really fills
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 5);

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(SubmitInteractive(*service, request));
  }

  // The fifth future bounced immediately — no worker involvement.
  ASSERT_EQ(futures[4].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const StatusOr<QueryResult> bounced = futures[4].get();
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kResourceExhausted);

  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.queue_depth, 4u);
  EXPECT_EQ(stats.queue_high_water, 4u);

  // Backpressure is a signal, not a failure: the drain serves the four
  // admitted requests.
  service->Shutdown();
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(futures[i].get().ok()) << i;
  }
  stats = service->Stats();
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(QueryServiceAdmissionTest, ExpiredDeadlineRejectedWithoutDispatch) {
  ServiceOptions options;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const QueryRequest request = MakeWorkload(service->catalog(), 1)[0];

  // A non-positive deadline is dead on arrival — never enqueued, never
  // dispatched.
  std::future<StatusOr<QueryResult>> expired =
      SubmitInteractive(*service, request, 0);
  ASSERT_EQ(expired.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const StatusOr<QueryResult> result = expired.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.rejected_expired, 1u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.batches, 0u);
  // The router never saw it.
  EXPECT_EQ(stats.catalog.total_queries, 0u);
}

TEST(QueryServiceAdmissionTest, DeadlineExpiringInQueueSkipsDispatch) {
  ServiceOptions options;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const QueryRequest request = MakeWorkload(service->catalog(), 1)[0];

  // Admitted with a 2 ms deadline, then held paused well past it: the
  // drain must reject it at the pre-dispatch gate.
  std::future<StatusOr<QueryResult>> future =
      SubmitInteractive(*service, request, 2000);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service->Shutdown();

  const StatusOr<QueryResult> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.timed_out_in_queue, 1u);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.catalog.total_queries, 0u);
}

TEST(QueryServiceAdmissionTest, ShutdownDrainsThenRejectsLateSubmits) {
  ServiceOptions options;
  options.queue_capacity = 16;
  options.num_workers = 1;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  std::vector<QueryRequest> requests = MakeWorkload(service->catalog(), 8);

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(SubmitInteractive(*service, request));
  }

  // Shutdown lifts the pause and drains: every admitted request is
  // served before Shutdown returns.
  service->Shutdown();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(futures[i].get().ok()) << i;
  }

  // Late submits bounce without touching the queue.
  std::future<StatusOr<QueryResult>> late =
      SubmitInteractive(*service, requests[0]);
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const StatusOr<QueryResult> rejected = late.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.served, 8u);
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  // Shutdown is idempotent.
  service->Shutdown();
}

// Micro-batching shape: with one worker and a paused queue of
// 2 * kMaxBatch + 2, the drain must dispatch coalesced batches of
// kMaxBatch, kMaxBatch and 2.
TEST(QueryServiceBatchingTest, DrainCoalescesUpToMaxBatch) {
  ServiceOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 2 * kMaxBatch + 2);

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(SubmitInteractive(*service, request));
  }
  service->Shutdown();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.batches, 3u);
  ASSERT_EQ(stats.batch_size_counts.size(), kMaxBatch + 1);
  EXPECT_EQ(stats.batch_size_counts[kMaxBatch], 2u);
  EXPECT_EQ(stats.batch_size_counts[2], 1u);
  for (size_t b = 1; b < kMaxBatch; ++b) {
    if (b == 2) continue;
    EXPECT_EQ(stats.batch_size_counts[b], 0u) << b;
  }
}

// Resume() lifts start_paused without shutting down: the same service
// keeps serving afterwards.
TEST(QueryServiceBatchingTest, ResumeLiftsPausedDispatch) {
  ServiceOptions options;
  options.num_workers = 2;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 4);

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(SubmitInteractive(*service, request));
  }
  EXPECT_EQ(service->Stats().served, 0u);
  EXPECT_EQ(service->Stats().queue_depth, 4u);

  service->Resume();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());

  // Still accepting after the resume-drain.
  EXPECT_TRUE(SubmitInteractive(*service, requests[0]).get().ok());
  service->Shutdown();
  EXPECT_EQ(service->Stats().served, 5u);
}

// Each reply leaves as soon as its own route finishes. One paused
// worker takes an interactive request and kMaxBatch - 1 batch-class
// requests as one batch and routes the interactive one first; when its
// callback runs, it is the only request the router and the ledger have
// seen, not the whole batch.
TEST(QueryServiceBatchingTest, DeliversEachReplyAsSoonAsItIsRouted) {
  ServiceOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), kMaxBatch);

  size_t routed_at_delivery = 0;
  size_t served_at_delivery = 0;
  service->Submit(requests[0], kNoDeadline, QosClass::kInteractive,
                  [&](StatusOr<QueryResult> result) {
                    EXPECT_TRUE(result.ok()) << result.status().ToString();
                    routed_at_delivery =
                        service->catalog().Stats().total_queries;
                    served_at_delivery = service->Stats().served;
                  });
  std::atomic<size_t> delivered{0};
  for (size_t i = 1; i < kMaxBatch; ++i) {
    service->Submit(requests[i], kNoDeadline, QosClass::kBatch,
                    [&delivered](StatusOr<QueryResult> result) {
                      EXPECT_TRUE(result.ok()) << result.status().ToString();
                      delivered.fetch_add(1);
                    });
  }
  service->Resume();
  service->Shutdown();

  EXPECT_EQ(delivered.load(), kMaxBatch - 1);
  EXPECT_EQ(routed_at_delivery, 1u);
  EXPECT_EQ(served_at_delivery, 1u);
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batch_size_counts[kMaxBatch], 1u);
  EXPECT_EQ(stats.served, kMaxBatch);
}

// A request the router rejects fails alone: in one worker batch, an
// out-of-venue request between two good ones gets kInvalidArgument and
// counts as a route error, and its neighbours are served.
TEST(QueryServiceBatchingTest, ReportsPerRequestErrors) {
  ServiceOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  std::vector<QueryRequest> requests = MakeWorkload(service->catalog(), 3);
  requests[1].source = IndoorPoint{{1e6, 1e6}, 0};  // outside the venue

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(SubmitInteractive(*service, request));
  }
  service->Shutdown();
  EXPECT_TRUE(futures[0].get().ok());
  EXPECT_EQ(futures[1].get().status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(futures[2].get().ok());

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batch_size_counts[3], 1u);
  EXPECT_EQ(stats.served, 3u);
  EXPECT_EQ(stats.route_errors, 1u);
}

// A NaN deadline used to slip through admission as "no deadline" —
// every Clock comparison against NaN reads false, so the request could
// neither expire nor be feasibility-checked. It is malformed input and
// must bounce as such, along with plain negative budgets.
TEST(QueryServiceAdmissionTest, NanAndNegativeDeadlinesRejectedAsInvalid) {
  ServiceOptions options;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const QueryRequest request = MakeWorkload(service->catalog(), 1)[0];

  const double bad_deadlines[] = {std::nan(""), -1.0, -1e9,
                                  -std::numeric_limits<double>::infinity()};
  for (double deadline : bad_deadlines) {
    std::future<StatusOr<QueryResult>> future =
        SubmitInteractive(*service, request, deadline);
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << deadline;
    const StatusOr<QueryResult> result = future.get();
    ASSERT_FALSE(result.ok()) << deadline;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << deadline;
  }

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.rejected_invalid, 4u);
  EXPECT_EQ(stats.rejected_expired, 0u);  // distinct from a 0 deadline
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.catalog.total_queries, 0u);
  // The accounting identity covers the new bucket.
  EXPECT_EQ(stats.submitted, stats.rejected_invalid);
}

TEST(QueryServiceAdmissionTest, UnknownQosClassRejectedAsInvalid) {
  ServiceOptions options;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const QueryRequest request = MakeWorkload(service->catalog(), 1)[0];

  std::future<StatusOr<QueryResult>> future = service->Submit(
      request, 1000.0, static_cast<QosClass>(kNumQosClasses));
  const StatusOr<QueryResult> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.rejected_invalid, 1u);
  EXPECT_EQ(stats.admitted, 0u);
}

// Displacement at queue limit: higher-class arrivals evict the
// youngest queued request of the lowest class strictly below them, and
// never touch their own class or above.
TEST(QueryServiceQosTest, FullQueueDisplacesLowestClassFirst) {
  ServiceOptions options;
  options.queue_capacity = 4;
  options.num_workers = 1;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 8);
  constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

  // Fill with background...
  std::vector<std::future<StatusOr<QueryResult>>> background;
  for (int i = 0; i < 4; ++i) {
    background.push_back(
        service->Submit(requests[i], kNoDeadline, QosClass::kBackground));
  }
  // ...then two interactive arrivals displace two background requests.
  std::vector<std::future<StatusOr<QueryResult>>> interactive;
  for (int i = 4; i < 6; ++i) {
    interactive.push_back(
        service->Submit(requests[i], kNoDeadline, QosClass::kInteractive));
  }

  // The youngest background futures resolved immediately as shed.
  for (int i = 3; i >= 2; --i) {
    ASSERT_EQ(background[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << i;
    const StatusOr<QueryResult> shed = background[i].get();
    ASSERT_FALSE(shed.ok()) << i;
    EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted) << i;
  }

  // A batch arrival at the (still full) queue sheds background, not
  // interactive.
  std::future<StatusOr<QueryResult>> batch =
      service->Submit(requests[6], kNoDeadline, QosClass::kBatch);
  const StatusOr<QueryResult> shed_for_batch = background[1].get();
  ASSERT_FALSE(shed_for_batch.ok());
  EXPECT_EQ(shed_for_batch.status().code(), StatusCode::kResourceExhausted);

  // A background arrival at the limit has nothing below it to shed —
  // plain queue-full rejection, existing semantics preserved.
  std::future<StatusOr<QueryResult>> rejected =
      service->Submit(requests[7], kNoDeadline, QosClass::kBackground);
  const StatusOr<QueryResult> bounced = rejected.get();
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kResourceExhausted);

  service->Shutdown();
  EXPECT_TRUE(background[0].get().ok());
  for (auto& f : interactive) EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(batch.get().ok());

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.shed_displaced, 3u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.shed_by_class[static_cast<size_t>(QosClass::kBackground)],
            3u);
  EXPECT_EQ(stats.served_by_class[static_cast<size_t>(QosClass::kInteractive)],
            2u);
  EXPECT_EQ(stats.served_by_class[static_cast<size_t>(QosClass::kBatch)], 1u);
  EXPECT_EQ(stats.submitted, stats.served + stats.shed_displaced +
                                 stats.rejected_queue_full);
}

// Feasibility shedding: once an EWMA of the per-request route time
// exists, a deadline the queue can provably not meet is shed at
// admission instead of timing out later.
TEST(QueryServiceQosTest, InfeasibleDeadlineShedAtAdmission) {
  ServiceOptions options;
  options.num_workers = 1;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 4);

  // Serve a little traffic to establish the EWMA (real routes take
  // hundreds of microseconds here).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(SubmitInteractive(*service, requests[static_cast<size_t>(i)])
                    .get()
                    .ok());
  }
  ASSERT_GT(service->Stats().ewma_route_micros, 0.0);

  // A 1-nanosecond budget cannot survive even an empty queue at that
  // service rate — shed, not admitted-then-expired.
  std::future<StatusOr<QueryResult>> future =
      SubmitInteractive(*service, requests[3], 1e-3);
  const StatusOr<QueryResult> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.shed_infeasible, 1u);
  EXPECT_EQ(stats.timed_out_in_queue, 0u);
  EXPECT_EQ(stats.served, 3u);
}

// The adaptive limit: a target queue delay shrinks the admission bound
// from the fixed capacity to roughly target/ewma once dispatches have
// taught the service its own speed.
TEST(QueryServiceQosTest, AdaptiveQueueLimitTracksObservedRouteTime) {
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 64;
  options.target_queue_delay_micros = 1.0;  // ~one microsecond of queue
  options.min_queue_limit = 2;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 3);

  // Cold: no EWMA yet, the limit is the full capacity.
  EXPECT_EQ(service->Stats().queue_limit, 64u);

  for (const QueryRequest& request : requests) {
    ASSERT_TRUE(SubmitInteractive(*service, request).get().ok());
  }
  // Routes take far longer than the 1 us target, so the ideal depth
  // rounds to zero and the floor holds the limit up.
  const ServiceStats stats = service->Stats();
  ASSERT_GT(stats.ewma_route_micros, 1.0);
  EXPECT_EQ(stats.queue_limit, 2u);
  service->Shutdown();
}

TEST(MakeQueryServiceTest, ValidatesOverloadControlOptions) {
  ServiceOptions bad_target;
  bad_target.target_queue_delay_micros = std::nan("");
  EXPECT_EQ(MakeQueryService(MakeCatalog(), bad_target).status().code(),
            StatusCode::kInvalidArgument);

  ServiceOptions negative_target;
  negative_target.target_queue_delay_micros = -1;
  EXPECT_EQ(MakeQueryService(MakeCatalog(), negative_target).status().code(),
            StatusCode::kInvalidArgument);

  ServiceOptions zero_floor;
  zero_floor.target_queue_delay_micros = 100;
  zero_floor.min_queue_limit = 0;
  EXPECT_EQ(MakeQueryService(MakeCatalog(), zero_floor).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LatencyHistogramTest, RecordsBucketsAndQuantiles) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.Quantile(0.5), 0);  // empty

  // 90 one-microsecond samples and 10 at ~1 ms: p50 sits in the low
  // bucket, p99 in the millisecond bucket.
  for (int i = 0; i < 90; ++i) histogram.Record(1.0);
  for (int i = 0; i < 10; ++i) histogram.Record(1000.0);
  EXPECT_EQ(histogram.total, 100u);
  EXPECT_LE(histogram.P50(), 2.0);
  EXPECT_GE(histogram.P99(), 1000.0);
  EXPECT_LE(histogram.P99(), 2048.0);
  // Quantiles are monotone in q.
  EXPECT_LE(histogram.Quantile(0.1), histogram.Quantile(0.9));

  LatencyHistogram other;
  other.Record(1.0);
  histogram.Accumulate(other);
  EXPECT_EQ(histogram.total, 101u);

  // Out-of-range samples clamp to the last bucket instead of writing
  // out of bounds.
  LatencyHistogram huge;
  huge.Record(1e30);
  EXPECT_EQ(huge.total, 1u);
  EXPECT_EQ(huge.counts[LatencyHistogram::kNumBuckets - 1], 1u);
}

// The overflow bucket is a clamp, not a measurement: +inf lands there
// too (casting log2(inf) to an integer is UB — this is the regression
// guard), and a quantile resolving to it reports the saturated top
// edge rather than inventing a finite latency.
TEST(LatencyHistogramTest, OverflowBucketClampsInfinity) {
  LatencyHistogram histogram;
  histogram.Record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(histogram.total, 1u);
  EXPECT_EQ(histogram.counts[LatencyHistogram::kNumBuckets - 1], 1u);
  EXPECT_EQ(histogram.P99(), LatencyHistogram::kOverflowMicros);
}

// Log-linear resolution: 40 µs and 60 µs must read apart. 99 samples at
// 60 µs and one outlier put the median in 60's sub-bucket [60, 64),
// within 12.5% of the truth — the power-of-two layout said 64..128.
TEST(LatencyHistogramTest, SubBucketsResolveTheMedianWithinAnEighth) {
  LatencyHistogram histogram;
  for (int i = 0; i < 99; ++i) histogram.Record(60.0);
  histogram.Record(5000.0);
  EXPECT_GE(histogram.P50(), 60.0);
  EXPECT_LE(histogram.P50(), 67.5);
  EXPECT_GE(histogram.Quantile(1.0), 5000.0);
  EXPECT_LE(histogram.Quantile(1.0), 5000.0 * 1.125);
}

// NaN durations are dropped and ledgered, never bucketed: a NaN would
// land in bucket 0 (every comparison reads false) and silently skew
// p50 downward — the exact class of stats corruption the NaN deadline
// fix keeps out of admission.
TEST(LatencyHistogramTest, NanSamplesAreDroppedAndCounted) {
  LatencyHistogram histogram;
  histogram.Record(100.0);
  histogram.Record(std::nan(""));
  EXPECT_EQ(histogram.total, 1u);
  EXPECT_EQ(histogram.nan_dropped, 1u);
  EXPECT_EQ(histogram.counts[0], 0u);

  LatencyHistogram other;
  other.Record(std::nan(""));
  histogram.Accumulate(other);
  EXPECT_EQ(histogram.total, 1u);
  EXPECT_EQ(histogram.nan_dropped, 2u);
}

// The per-kind accounting ledger: a mixed workload of all four query
// kinds served to completion must land every request in exactly one
// submitted_by_kind slot and every delivered answer in the matching
// served_by_kind slot, with sum(served_by_kind) == served.
TEST(QueryServiceFamilyTest, PerKindLedgerBalances) {
  ServiceOptions options;
  options.queue_capacity = 256;
  options.num_workers = 2;
  std::unique_ptr<QueryService> service = MakeService(options);

  // Venue 0's graph feeds the family generators; the requests carry
  // venue_id 0, which the sharded dispatch sends to shard 0 (ids are
  // dense from 0, so "unaddressed" and "venue 0" coincide by design).
  const ItGraph& graph = service->catalog().graph(0);
  std::vector<QueryRequest> requests = MakeWorkload(service->catalog(), 10);
  size_t expected[kNumQueryKinds] = {requests.size(), 0, 0, 0};
  for (QueryKind kind : {QueryKind::kReachability,
                         QueryKind::kNearestFacility, QueryKind::kMultiStop}) {
    FamilyGenConfig config;
    config.kind = kind;
    config.num_queries = 3 + static_cast<int>(kind);
    config.seed = 50 + static_cast<uint64_t>(kind);
    std::vector<QueryRequest> family =
        ValueOrDie(GenerateFamilyQueries(graph, config), "family gen");
    expected[static_cast<size_t>(kind)] = family.size();
    requests.insert(requests.end(), family.begin(), family.end());
  }

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(SubmitInteractive(*service, request));
  }
  for (auto& future : futures) {
    const StatusOr<QueryResult> served = future.get();
    EXPECT_TRUE(served.ok()) << served.status().ToString();
  }
  service->Shutdown();

  const ServiceStats stats = service->Stats();
  size_t submitted_sum = 0, served_sum = 0;
  for (size_t kind = 0; kind < kNumQueryKinds; ++kind) {
    EXPECT_EQ(stats.submitted_by_kind[kind], expected[kind])
        << "kind " << kind;
    EXPECT_EQ(stats.served_by_kind[kind], expected[kind]) << "kind " << kind;
    submitted_sum += stats.submitted_by_kind[kind];
    served_sum += stats.served_by_kind[kind];
  }
  EXPECT_EQ(submitted_sum, stats.submitted);
  EXPECT_EQ(served_sum, stats.served);
}

// An out-of-range kind byte (a corrupt or hostile enum value) is
// rejected at admission with kInvalidArgument, ledgered under
// rejected_invalid, and appears in NEITHER per-kind array — the arrays
// only ever index known kinds.
TEST(QueryServiceFamilyTest, UnknownKindRejectedAtAdmission) {
  std::unique_ptr<QueryService> service = MakeService(ServiceOptions{});
  std::vector<QueryRequest> requests = MakeWorkload(service->catalog(), 1);
  QueryRequest bogus = requests[0];
  bogus.kind = static_cast<QueryKind>(7);

  auto future = SubmitInteractive(*service, bogus);
  const StatusOr<QueryResult> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.rejected_invalid, 1u);
  EXPECT_EQ(stats.served, 0u);
  for (size_t kind = 0; kind < kNumQueryKinds; ++kind) {
    EXPECT_EQ(stats.submitted_by_kind[kind], 0u) << "kind " << kind;
    EXPECT_EQ(stats.served_by_kind[kind], 0u) << "kind " << kind;
  }
}

// ---------------------------------------------------------------------
// Inline routing: an interactive request that finds the service idle
// is routed on the submitting thread; everything else waits its turn
// on a worker.

/// Submits through the callback primitive and reports the thread the
/// callback ran on (via the returned future) plus whether it had
/// already run when Submit returned.
std::future<std::thread::id> SubmitRecordingThread(
    QueryService* service, const QueryRequest& request, QosClass qos,
    bool* ran_before_return) {
  auto ran_on = std::make_shared<std::promise<std::thread::id>>();
  std::future<std::thread::id> future = ran_on->get_future();
  service->Submit(request, kNoDeadline, qos,
                  [ran_on](StatusOr<QueryResult> result) {
                    EXPECT_TRUE(result.ok()) << result.status().ToString();
                    ran_on->set_value(std::this_thread::get_id());
                  });
  *ran_before_return =
      future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  return future;
}

TEST(QueryServiceInlineTest, IdleInteractiveRunsOnTheSubmittingThread) {
  ServiceOptions options;
  options.num_workers = 2;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 4);

  for (const QueryRequest& request : requests) {
    bool ran_before_return = false;
    std::future<std::thread::id> ran_on = SubmitRecordingThread(
        service.get(), request, QosClass::kInteractive, &ran_before_return);
    EXPECT_TRUE(ran_before_return);
    EXPECT_EQ(ran_on.get(), std::this_thread::get_id());
  }

  // Same ledger as a worker dispatch: admitted, a batch of one each,
  // and the queue reached depth 1 on the way through.
  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.admitted, requests.size());
  EXPECT_EQ(stats.served, requests.size());
  EXPECT_EQ(stats.batches, requests.size());
  EXPECT_EQ(stats.batch_size_counts[1], requests.size());
  EXPECT_EQ(stats.queue_high_water, 1u);
  EXPECT_EQ(stats.latency.total, requests.size());
  EXPECT_GT(stats.ewma_route_micros, 0.0);
}

TEST(QueryServiceInlineTest, BatchAndBackgroundClassesRunOnWorkers) {
  ServiceOptions options;
  options.num_workers = 2;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 2);

  for (QosClass qos : {QosClass::kBatch, QosClass::kBackground}) {
    bool ran_before_return = false;
    std::future<std::thread::id> ran_on = SubmitRecordingThread(
        service.get(), requests[static_cast<size_t>(qos) - 1], qos,
        &ran_before_return);
    EXPECT_NE(ran_on.get(), std::this_thread::get_id())
        << "class " << static_cast<int>(qos);
  }
  service->Shutdown();
  EXPECT_EQ(service->Stats().served, 2u);
}

TEST(QueryServiceInlineTest, PausedServiceQueuesInteractiveWork) {
  ServiceOptions options;
  options.num_workers = 2;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const QueryRequest request = MakeWorkload(service->catalog(), 1)[0];

  bool ran_before_return = true;
  std::future<std::thread::id> ran_on = SubmitRecordingThread(
      service.get(), request, QosClass::kInteractive, &ran_before_return);
  EXPECT_FALSE(ran_before_return);
  EXPECT_EQ(service->Stats().queue_depth, 1u);

  service->Resume();
  EXPECT_NE(ran_on.get(), std::this_thread::get_id());
  service->Shutdown();
  EXPECT_EQ(service->Stats().served, 1u);
}

// With work already queued, a new interactive arrival queues behind it
// instead of overtaking it on the submitting thread. The single worker
// is held inside a batch request's callback so the queue stays put.
TEST(QueryServiceInlineTest, QueuedWorkIsNotOvertakenInline) {
  ServiceOptions options;
  options.num_workers = 1;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 3);

  std::promise<void> worker_held;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  service->Submit(requests[0], kNoDeadline, QosClass::kBatch,
                  [&worker_held, released](StatusOr<QueryResult>) {
                    worker_held.set_value();
                    released.wait();
                  });
  worker_held.get_future().wait();

  std::mutex order_mu;
  std::vector<size_t> order;
  std::vector<std::thread::id> threads(3);
  for (size_t i = 1; i < 3; ++i) {
    service->Submit(requests[i], kNoDeadline, QosClass::kInteractive,
                    [&, i](StatusOr<QueryResult> result) {
                      EXPECT_TRUE(result.ok());
                      std::lock_guard<std::mutex> lock(order_mu);
                      order.push_back(i);
                      threads[i] = std::this_thread::get_id();
                    });
    std::lock_guard<std::mutex> lock(order_mu);
    EXPECT_TRUE(order.empty()) << "request " << i << " ran inline";
  }
  EXPECT_EQ(service->Stats().queue_depth, 2u);

  release.set_value();
  service->Shutdown();
  ASSERT_EQ(order, (std::vector<size_t>{1, 2}));
  EXPECT_NE(threads[1], std::this_thread::get_id());
  EXPECT_NE(threads[2], std::this_thread::get_id());
}

// A cold lazy shard is loaded by a worker, never on the submitting
// thread; once resident, the same venue routes inline.
TEST(QueryServiceInlineTest, ColdShardLoadsOnAWorker) {
  const std::string dir = "service_test_" + std::to_string(::getpid());
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  std::vector<Venue> fleet = MakeFleet(7);
  VenueCatalog lazy;
  for (size_t i = 0; i < fleet.size(); ++i) {
    const std::string path = dir + "/venue_" + std::to_string(i) + ".itspq";
    ASSERT_TRUE(WriteVenueArtifact(path, fleet[i]).ok());
    (void)ValueOrDie(lazy.AddArtifactShard(path, "itg-s"), "AddArtifactShard");
  }
  const QueryRequest request = MakeWorkload(MakeCatalog(), 1)[0];
  std::unique_ptr<QueryService> service = ValueOrDie(
      MakeQueryService(std::move(lazy), ServiceOptions()), "MakeQueryService");
  ASSERT_FALSE(service->catalog().IsResident(request.venue_id));
  const size_t loads_before = service->Stats().catalog.total_loads;

  bool ran_before_return = false;
  std::future<std::thread::id> cold = SubmitRecordingThread(
      service.get(), request, QosClass::kInteractive, &ran_before_return);
  EXPECT_NE(cold.get(), std::this_thread::get_id());
  EXPECT_EQ(service->Stats().catalog.total_loads, loads_before + 1);

  std::future<std::thread::id> warm = SubmitRecordingThread(
      service.get(), request, QosClass::kInteractive, &ran_before_return);
  EXPECT_TRUE(ran_before_return);
  EXPECT_EQ(warm.get(), std::this_thread::get_id());
  service->Shutdown();
  (void)std::system(("rm -rf " + dir).c_str());
}

// Inline routes and worker batches share one ledger: under mixed-class
// traffic from several threads, some with deadlines too tight to make,
// every request lands in exactly one outcome, and the batch histogram
// counts exactly the requests that reached the router.
TEST(QueryServiceInlineTest, MixedTrafficLedgerReconcilesAfterShutdown) {
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 32;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 64);

  constexpr int kThreads = 4;
  std::atomic<size_t> delivered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < requests.size(); ++i) {
        const QosClass qos = static_cast<QosClass>((i + t) % kNumQosClasses);
        const double deadline = i % 7 == 0 ? 5.0 : kNoDeadline;
        service->Submit(requests[i], deadline, qos,
                        [&delivered](StatusOr<QueryResult>) {
                          delivered.fetch_add(1);
                        });
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  service->Shutdown();

  const ServiceStats stats = service->Stats();
  const size_t total = requests.size() * kThreads;
  EXPECT_EQ(delivered.load(), total);
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.submitted,
            stats.rejected_queue_full + stats.rejected_expired +
                stats.rejected_invalid + stats.rejected_shutdown +
                stats.shed_displaced + stats.shed_infeasible +
                stats.timed_out_in_queue + stats.timed_out_in_flight +
                stats.served);
  size_t routed = 0;
  for (size_t b = 1; b < stats.batch_size_counts.size(); ++b) {
    routed += b * stats.batch_size_counts[b];
  }
  EXPECT_EQ(routed, stats.served + stats.timed_out_in_flight);
  EXPECT_EQ(routed, stats.catalog.total_queries);
  EXPECT_EQ(stats.latency.total, stats.served);
  EXPECT_EQ(stats.queue_depth, 0u);
}

}  // namespace
}  // namespace itspq
