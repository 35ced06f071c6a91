// Concurrent read/write hammers for the update plane, written to run
// under TSan: readers route while a writer flips a door between two ATI
// configurations. Every answer must be coherent — bit-identical to the
// answer under configuration A's world or configuration B's world,
// never a mix — and the service keeps serving throughout (no drain, no
// pause). Pre-building two static control catalogs gives the exact
// answer set for each world.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/venue_gen.h"
#include "gen/workload_gen.h"
#include "query/sharded_router.h"
#include "query/venue_catalog.h"
#include "server/query_service.h"
#include "update/ati_update.h"

namespace itspq {
namespace {

template <typename T>
T ValueOrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

// Configuration A keeps the toggled door open across every workload
// departure hour; configuration B confines it to a short night window,
// i.e. effectively closed — so any on-path door must reroute.
const std::vector<TimeInterval> kConfigA = {MakeInterval(6, 0, 23, 30)};
const std::vector<TimeInterval> kConfigB = {MakeInterval(2, 0, 2, 30)};

Venue MakeHammerVenue() {
  MallConfig mall = MallConfig::Paper();
  mall.floors = 1;
  mall.seed = 13;
  Venue shell = ValueOrDie(GenerateMall(mall), "GenerateMall");
  AtiGenConfig ati;
  ati.seed = 14;
  return ValueOrDie(AssignTemporalVariations(shell, ati),
                    "AssignTemporalVariations");
}

Venue WithDoorConfig(const Venue& base, DoorId door,
                     const std::vector<TimeInterval>& intervals) {
  Venue::Builder builder = Venue::Builder::FromVenue(base);
  Status status = builder.SetDoorAti(door, intervals);
  if (!status.ok()) {
    ADD_FAILURE() << "SetDoorAti: " << status.ToString();
    std::abort();
  }
  return ValueOrDie(std::move(builder).Build(), "Builder::Build");
}

VenueCatalog MakeCatalogWith(const Venue& venue) {
  VenueCatalog catalog;
  ValueOrDie(catalog.AddVenue(venue, "itg-a+"), "AddVenue");
  return catalog;
}

// A coherent answer equals exactly one of the two worlds' answers for
// the same request (or both, when the toggled door doesn't matter).
bool Matches(const StatusOr<QueryResult>& got,
             const StatusOr<QueryResult>& expect) {
  if (got.ok() != expect.ok()) return false;
  if (!got.ok()) return got.status().code() == expect.status().code();
  if (got->found != expect->found) return false;
  if (!got->found) return true;
  if (got->path.length_m() != expect->path.length_m()) return false;
  if (got->path.steps().size() != expect->path.steps().size()) return false;
  for (size_t s = 0; s < got->path.steps().size(); ++s) {
    if (got->path.steps()[s].door != expect->path.steps()[s].door ||
        got->path.steps()[s].cumulative_m !=
            expect->path.steps()[s].cumulative_m ||
        got->path.steps()[s].arrival_seconds !=
            expect->path.steps()[s].arrival_seconds) {
      return false;
    }
  }
  return true;
}

struct HammerFixture {
  Venue base = MakeHammerVenue();
  DoorId door = kInvalidDoor;

  // Live catalog starts in configuration A; static controls hold A and
  // B frozen for answer comparison.
  VenueCatalog live, control_a, control_b;

  std::vector<QueryRequest> workload;
  std::vector<StatusOr<QueryResult>> expect_a, expect_b;

  HammerFixture() {
    // Draw the workload against the unmodified venue (configs only
    // change door hours, never geometry, so endpoints stay valid).
    VenueCatalog plain = MakeCatalogWith(base);
    MultiVenueWorkloadConfig config;
    config.num_requests = 64;
    config.seed = 55;
    config.pairs_per_venue = 8;
    workload = ValueOrDie(GenerateMultiVenueWorkload(plain, config),
                          "GenerateMultiVenueWorkload");

    // Toggle the door the workload's shortest paths cross most often —
    // closing it (config B) must reroute some answers.
    std::vector<size_t> door_hits(base.NumDoors(), 0);
    {
      ShardedRouter router(plain);
      QueryContext context;
      for (const QueryRequest& request : workload) {
        const StatusOr<QueryResult> result = router.Route(request, &context);
        if (!result.ok() || !result->found) continue;
        for (const PathStep& step : result->path.steps()) {
          if (step.door != kInvalidDoor) ++door_hits[step.door];
        }
      }
    }
    size_t best = 0;
    for (size_t d = 1; d < door_hits.size(); ++d) {
      if (door_hits[d] > door_hits[best]) best = d;
    }
    if (door_hits[best] == 0) {
      ADD_FAILURE() << "workload found no routes";
      std::abort();
    }
    door = static_cast<DoorId>(best);

    live = MakeCatalogWith(WithDoorConfig(base, door, kConfigA));
    control_a = MakeCatalogWith(WithDoorConfig(base, door, kConfigA));
    control_b = MakeCatalogWith(WithDoorConfig(base, door, kConfigB));

    ShardedRouter router_a(control_a);
    ShardedRouter router_b(control_b);
    QueryContext context_a, context_b;
    size_t differs = 0;
    for (const QueryRequest& request : workload) {
      expect_a.push_back(router_a.Route(request, &context_a));
      expect_b.push_back(router_b.Route(request, &context_b));
      if (!Matches(expect_a.back(), expect_b.back())) ++differs;
    }
    // The hammer is only meaningful if the toggled door changes some
    // answers — otherwise "matches A or B" is vacuous.
    EXPECT_GT(differs, 0u) << "toggled door affects no workload answer";
  }
};

TEST(UpdateConcurrencyTest, CatalogReadersSeeCoherentEpochsUnderWriter) {
  HammerFixture fx;
  ShardedRouter router(fx.live);

  constexpr int kReaders = 8;
  constexpr int kWriterRounds = 50;
  std::atomic<bool> stop{false};
  std::atomic<size_t> incoherent{0};
  std::atomic<size_t> answered{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      QueryContext context;
      size_t i = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t q = i++ % fx.workload.size();
        const StatusOr<QueryResult> got =
            router.Route(fx.workload[q], &context);
        if (!Matches(got, fx.expect_a[q]) && !Matches(got, fx.expect_b[q])) {
          incoherent.fetch_add(1, std::memory_order_relaxed);
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  size_t applied = 0;
  for (int round = 0; round < kWriterRounds; ++round) {
    AtiUpdate update;
    update.venue_id = 0;
    update.door_id = fx.door;
    update.intervals = (round % 2 == 0) ? kConfigB : kConfigA;
    ValueOrDie(fx.live.ApplyAtiUpdate(update), "ApplyAtiUpdate");
    ++applied;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(incoherent.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(applied, static_cast<size_t>(kWriterRounds));
  EXPECT_EQ(fx.live.epoch(0), static_cast<uint64_t>(kWriterRounds));
  EXPECT_EQ(fx.live.Stats().total_updates_applied,
            static_cast<size_t>(kWriterRounds));
}

TEST(UpdateConcurrencyTest, ServiceServesThroughoutUpdateStream) {
  HammerFixture fx;

  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 4096;
  options.update_queue_capacity = 256;
  auto service = ValueOrDie(
      MakeQueryService(std::move(fx.live), options), "MakeQueryService");

  constexpr int kSubmitters = 8;
  constexpr int kQueriesPerSubmitter = 40;
  constexpr int kWriterRounds = 30;

  std::atomic<size_t> incoherent{0};
  std::atomic<size_t> served_ok{0};
  std::atomic<size_t> backpressured{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kQueriesPerSubmitter; ++i) {
        const size_t q = static_cast<size_t>(s * kQueriesPerSubmitter + i) %
                         fx.workload.size();
        StatusOr<QueryResult> got =
            service
                ->Submit(fx.workload[q],
                         std::numeric_limits<double>::infinity(),
                         QosClass::kInteractive)
                .get();
        if (!got.ok() &&
            got.status().code() == StatusCode::kResourceExhausted) {
          // Admission backpressure is a valid serving outcome, not an
          // epoch-coherence violation.
          backpressured.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!Matches(got, fx.expect_a[q]) && !Matches(got, fx.expect_b[q])) {
          incoherent.fetch_add(1, std::memory_order_relaxed);
        } else {
          served_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writer runs concurrently with the submitters: the service never
  // drains or pauses while the door toggles A <-> B.
  std::vector<std::future<Status>> commits;
  commits.reserve(kWriterRounds);
  std::thread writer([&] {
    for (int round = 0; round < kWriterRounds; ++round) {
      AtiUpdate update;
      update.venue_id = 0;
      update.door_id = fx.door;
      update.intervals = (round % 2 == 0) ? kConfigB : kConfigA;
      commits.push_back(service->SubmitUpdate(update));
    }
  });

  for (std::thread& t : submitters) t.join();
  writer.join();
  for (std::future<Status>& commit : commits) {
    const Status status = commit.get();
    EXPECT_TRUE(status.ok() ||
                status.code() == StatusCode::kResourceExhausted)
        << status.ToString();
  }
  service->Shutdown();

  EXPECT_EQ(incoherent.load(), 0u);
  EXPECT_GT(served_ok.load(), 0u);

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.updates_submitted, static_cast<size_t>(kWriterRounds));
  EXPECT_EQ(stats.updates_submitted,
            stats.updates_applied + stats.updates_rejected);
  EXPECT_GT(stats.updates_applied, 0u);
  EXPECT_EQ(stats.submitted,
            static_cast<size_t>(kSubmitters * kQueriesPerSubmitter));
}

}  // namespace
}  // namespace itspq
