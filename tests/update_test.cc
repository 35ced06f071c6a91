// The live-world update plane: ItGraph::BuildFrom copy-on-write,
// the boundary-ledger flip index vs the probe-built one,
// UpdateApplier/VenueCatalog epoch transitions, snapshot carry and
// targeted invalidation across versions, and the rebuild-equivalence
// property — N online updates answer bit-identically to a from-scratch
// rebuild of the mutated fleet.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/span.h"
#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/query_gen.h"
#include "gen/venue_gen.h"
#include "gen/workload_gen.h"
#include "itgraph/checkpoints.h"
#include "itgraph/graph_update.h"
#include "itgraph/snapshot_store.h"
#include "query/sharded_router.h"
#include "query/strategies.h"
#include "query/venue_catalog.h"
#include "update/ati_update.h"
#include "update/update_applier.h"
#include "update/versioned_graph.h"

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

Venue MakeVariedVenue(uint64_t seed = 5, int checkpoints = 8,
                      int floors = 2) {
  MallConfig mall = MallConfig::Paper();
  mall.floors = floors;
  mall.seed = seed;
  Venue shell = ValueOrDie(GenerateMall(mall), "GenerateMall");
  AtiGenConfig ati;
  ati.checkpoint_count = checkpoints;
  ati.seed = seed + 1;
  return ValueOrDie(AssignTemporalVariations(shell, ati),
                    "AssignTemporalVariations");
}

VenueCatalog MakeCatalog(const std::string& strategy,
                         const RouterBuildOptions& options =
                             RouterBuildOptions(),
                         uint64_t seed = 5) {
  VenueCatalog catalog;
  ValueOrDie(catalog.AddVenue(MakeVariedVenue(seed), strategy, "", options),
             "AddVenue");
  return catalog;
}

// Bit-identical answer comparison: same algorithm over equal graphs
// must produce equal doubles, so exact == is the intended check.
void ExpectSameAnswer(const StatusOr<QueryResult>& a,
                      const StatusOr<QueryResult>& b, size_t index) {
  ASSERT_EQ(a.ok(), b.ok()) << "request " << index;
  if (!a.ok()) return;
  ASSERT_EQ(a->found, b->found) << "request " << index;
  if (!a->found) return;
  EXPECT_EQ(a->path.length_m(), b->path.length_m()) << "request " << index;
  ASSERT_EQ(a->path.steps().size(), b->path.steps().size())
      << "request " << index;
  for (size_t s = 0; s < a->path.steps().size(); ++s) {
    EXPECT_EQ(a->path.steps()[s].door, b->path.steps()[s].door)
        << "request " << index << " step " << s;
    EXPECT_EQ(a->path.steps()[s].cumulative_m, b->path.steps()[s].cumulative_m)
        << "request " << index << " step " << s;
    EXPECT_EQ(a->path.steps()[s].arrival_seconds,
              b->path.steps()[s].arrival_seconds)
        << "request " << index << " step " << s;
  }
}

// ExpectSameAnswer plus the family payloads: a sweep's reachable doors
// and every routed multi-stop leg (also the prefix of an unfinished
// itinerary).
void ExpectSameFamilyAnswer(const StatusOr<QueryResult>& a,
                            const StatusOr<QueryResult>& b, size_t index) {
  ExpectSameAnswer(a, b, index);
  if (!a.ok() || !b.ok()) return;
  ASSERT_EQ(a->reachable.size(), b->reachable.size()) << "request " << index;
  for (size_t r = 0; r < a->reachable.size(); ++r) {
    EXPECT_EQ(a->reachable[r].door, b->reachable[r].door)
        << "request " << index << " door " << r;
    EXPECT_EQ(a->reachable[r].distance_m, b->reachable[r].distance_m)
        << "request " << index << " door " << r;
    EXPECT_EQ(a->reachable[r].arrival_seconds, b->reachable[r].arrival_seconds)
        << "request " << index << " door " << r;
  }
  ASSERT_EQ(a->legs.size(), b->legs.size()) << "request " << index;
  for (size_t l = 0; l < a->legs.size(); ++l) {
    const std::vector<PathStep>& sa = a->legs[l].steps();
    const std::vector<PathStep>& sb = b->legs[l].steps();
    EXPECT_EQ(a->legs[l].length_m(), b->legs[l].length_m())
        << "request " << index << " leg " << l;
    ASSERT_EQ(sa.size(), sb.size()) << "request " << index << " leg " << l;
    for (size_t s = 0; s < sa.size(); ++s) {
      EXPECT_EQ(sa[s].door, sb[s].door)
          << "request " << index << " leg " << l << " step " << s;
      EXPECT_EQ(sa[s].arrival_seconds, sb[s].arrival_seconds)
          << "request " << index << " leg " << l << " step " << s;
    }
  }
}

TEST(ItGraphBuildFromTest, MatchesFullRebuildAfterSingleDoorEdit) {
  Venue venue = MakeVariedVenue();
  ItGraph before = ValueOrDie(ItGraph::Build(venue), "ItGraph::Build");

  const DoorId door = 3;
  Venue::Builder builder = Venue::Builder::FromVenue(venue);
  ASSERT_TRUE(
      builder.SetDoorAti(door, {MakeInterval(9, 30, 17, 45)}).ok());
  Venue edited = ValueOrDie(std::move(builder).Build(), "Builder::Build");

  ItGraph incremental =
      ValueOrDie(ItGraph::BuildFrom(before, edited, door), "BuildFrom");
  ItGraph scratch = ValueOrDie(ItGraph::Build(edited), "ItGraph::Build");

  ASSERT_EQ(incremental.NumDoors(), scratch.NumDoors());
  for (size_t d = 0; d < scratch.NumDoors(); ++d) {
    const auto bounds_a =
        incremental.Ati(static_cast<DoorId>(d)).InteriorBoundaries();
    const auto bounds_b =
        scratch.Ati(static_cast<DoorId>(d)).InteriorBoundaries();
    EXPECT_EQ(bounds_a, bounds_b) << "door " << d;
    for (double t = 0; t < kSecondsPerDay; t += 1800.0) {
      EXPECT_EQ(incremental.Ati(static_cast<DoorId>(d)).ContainsTimeOfDay(t),
                scratch.Ati(static_cast<DoorId>(d)).ContainsTimeOfDay(t))
          << "door " << d << " t " << t;
    }
  }
}

TEST(ItGraphBuildFromTest, RejectsDoorCountMismatchAndUnknownDoor) {
  Venue venue = MakeVariedVenue();
  ItGraph graph = ValueOrDie(ItGraph::Build(venue), "ItGraph::Build");
  Venue other = MakeVariedVenue(/*seed=*/6, /*checkpoints=*/8, /*floors=*/1);
  ASSERT_NE(other.NumDoors(), venue.NumDoors());
  EXPECT_EQ(ItGraph::BuildFrom(graph, other, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ItGraph::BuildFrom(graph, venue,
                               static_cast<DoorId>(venue.NumDoors()))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(VersionedGraphTest, LedgerFlipIndexMatchesProbeBuild) {
  auto world = ValueOrDie(
      VersionedGraph::Build(MakeVariedVenue(), TvCheck::kAsynchronousStrict), "Build");
  // The ledger-derived checkpoint set and CSR flip index must be
  // bit-identical to the from-scratch derivations.
  const CheckpointSet probe_cps = CheckpointSet::FromGraph(world->graph());
  EXPECT_EQ(world->checkpoints().times(), probe_cps.times());

  const BoundaryFlipIndex probe =
      BoundaryFlipIndex::Build(world->graph(), probe_cps);
  const BoundaryFlipIndex& ledger = world->flip_index();
  ASSERT_EQ(ledger.NumBoundaries(), probe.NumBoundaries());
  ASSERT_GT(ledger.NumBoundaries(), 0u);
  for (size_t b = 0; b < probe.NumBoundaries(); ++b) {
    const std::vector<DoorId> from_ledger(ledger.FlipsBegin(b),
                                          ledger.FlipsEnd(b));
    const std::vector<DoorId> from_probe(probe.FlipsBegin(b),
                                         probe.FlipsEnd(b));
    EXPECT_EQ(from_ledger, from_probe) << "boundary " << b;
  }
}

// The router's snapshot store reads the version's flip index in place,
// so an itg-a+ version costs exactly one empty slot table more than the
// store-less ntv version of the same venue: the flip CSR is counted once.
TEST(VersionedGraphTest, MemoryUsageCountsFlipIndexOnce) {
  auto with_store = ValueOrDie(
      VersionedGraph::Build(MakeVariedVenue(), TvCheck::kAsynchronousStrict),
      "Build");
  auto without_store = ValueOrDie(
      VersionedGraph::Build(MakeVariedVenue(), TvCheck::kNone), "Build");
  const SnapshotStore* store = with_store->router().snapshot_store();
  ASSERT_NE(store, nullptr);
  ASSERT_GT(with_store->flip_index().TotalFlips(), 0u);
  const size_t slot_table =
      store->NumIntervals() * sizeof(std::shared_ptr<const GraphSnapshot>);
  EXPECT_EQ(store->MemoryUsage(), slot_table);
  EXPECT_EQ(with_store->MemoryUsage(),
            without_store->MemoryUsage() + slot_table);
}

TEST(VersionedGraphTest, LedgerStaysConsistentAcrossUpdates) {
  auto world = ValueOrDie(
      VersionedGraph::Build(MakeVariedVenue(), TvCheck::kAsynchronousStrict), "Build");
  Rng rng(17);
  for (int round = 0; round < 8; ++round) {
    AtiUpdate update;
    update.door_id =
        static_cast<DoorId>(rng.UniformIndex(world->venue().NumDoors()));
    const double open = rng.UniformDouble(5 * 3600.0, 11 * 3600.0);
    const double close = rng.UniformDouble(13 * 3600.0, 23 * 3600.0);
    update.intervals = {TimeInterval{open, close}};
    world = ValueOrDie(UpdateApplier::Apply(*world, update), "Apply");

    const CheckpointSet probe_cps = CheckpointSet::FromGraph(world->graph());
    ASSERT_EQ(world->checkpoints().times(), probe_cps.times())
        << "round " << round;
    const BoundaryFlipIndex probe =
        BoundaryFlipIndex::Build(world->graph(), probe_cps);
    const BoundaryFlipIndex& ledger = world->flip_index();
    ASSERT_EQ(ledger.NumBoundaries(), probe.NumBoundaries());
    for (size_t b = 0; b < probe.NumBoundaries(); ++b) {
      ASSERT_EQ(std::vector<DoorId>(ledger.FlipsBegin(b), ledger.FlipsEnd(b)),
                std::vector<DoorId>(probe.FlipsBegin(b), probe.FlipsEnd(b)))
          << "round " << round << " boundary " << b;
    }
  }
  EXPECT_EQ(world->epoch(), 8u);
}

TEST(UpdateApplierTest, ErrorsLeaveCatalogOnCurrentEpoch) {
  VenueCatalog catalog = MakeCatalog("itg-s");
  EXPECT_EQ(catalog.epoch(0), 0u);

  AtiUpdate unknown_venue;
  unknown_venue.venue_id = 42;
  unknown_venue.door_id = 0;
  EXPECT_EQ(catalog.ApplyAtiUpdate(unknown_venue).status().code(),
            StatusCode::kNotFound);

  AtiUpdate unknown_door;
  unknown_door.door_id = static_cast<DoorId>(catalog.venue(0).NumDoors());
  EXPECT_EQ(catalog.ApplyAtiUpdate(unknown_door).status().code(),
            StatusCode::kNotFound);

  AtiUpdate zero_length;
  zero_length.door_id = 0;
  zero_length.intervals = {TimeInterval{3600, 3600}};
  EXPECT_EQ(catalog.ApplyAtiUpdate(zero_length).status().code(),
            StatusCode::kInvalidArgument);

  // A NaN bound fails the ATI check before any sort sees it.
  AtiUpdate nan_bound;
  nan_bound.door_id = 0;
  nan_bound.intervals = {TimeInterval{std::nan(""), 3600}};
  EXPECT_EQ(catalog.ApplyAtiUpdate(nan_bound).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(catalog.epoch(0), 0u);
  const CatalogStats stats = catalog.Stats();
  EXPECT_EQ(stats.total_updates_applied, 0u);
  // The unknown-venue rejection has no shard to charge; only the three
  // that reached shard 0 count.
  EXPECT_EQ(stats.total_updates_rejected, 3u);

  AtiUpdate good;
  good.door_id = 0;
  good.intervals = {MakeInterval(8, 0, 20, 0)};
  const UpdateOutcome outcome =
      ValueOrDie(catalog.ApplyAtiUpdate(good), "ApplyAtiUpdate");
  EXPECT_EQ(outcome.epoch, 1u);
  EXPECT_EQ(catalog.epoch(0), 1u);
  EXPECT_EQ(catalog.Stats().total_updates_applied, 1u);
}

// An ATI update allocates none of the venue's geometry: across a stream
// of updates every epoch reads epoch 0's door array, partitions and door
// lists — so its geometry block, which also holds the point-location
// grid, is epoch 0's — and answers LocateAll and DoorsOf as epoch 0 did.
// The epoch's router reads the version's own checkpoint set; a
// standalone router over the same graph owns a copy.
TEST(UpdateApplierTest, UpdateSharesVenueGeometry) {
  VenueCatalog catalog = MakeCatalog("itg-a+");
  const std::shared_ptr<const VersionedGraph> first = catalog.world(0);
  const Venue& base = first->venue();
  std::vector<IndoorPoint> probes;
  for (size_t d = 0; d < base.NumDoors(); ++d) {
    const Door& door = base.door(static_cast<DoorId>(d));
    probes.push_back({door.pos, door.floor});
  }
  for (size_t p = 0; p < base.NumPartitions(); ++p) {
    const Partition& part = base.partition(static_cast<PartitionId>(p));
    probes.push_back({{(part.rect.min_x + part.rect.max_x) / 2,
                       (part.rect.min_y + part.rect.max_y) / 2},
                      part.floor});
  }
  std::vector<std::vector<PartitionId>> located;
  for (const IndoorPoint& probe : probes) {
    located.push_back(base.LocateAll(probe));
  }

  Rng rng(23);
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    AtiUpdate update;
    update.door_id = static_cast<DoorId>(rng.UniformIndex(base.NumDoors()));
    const double open = rng.UniformDouble(5 * 3600.0, 11 * 3600.0);
    const double close = rng.UniformDouble(13 * 3600.0, 23 * 3600.0);
    update.intervals = {TimeInterval{open, close}};
    ValueOrDie(catalog.ApplyAtiUpdate(update), "ApplyAtiUpdate");
    const std::shared_ptr<const VersionedGraph> world = catalog.world(0);
    const Venue& venue = world->venue();
    ASSERT_NE(&venue, &base);
    EXPECT_EQ(&venue.door(0), &base.door(0));
    EXPECT_EQ(&venue.partition(0), &base.partition(0));
    for (size_t p = 0; p < base.NumPartitions(); ++p) {
      const auto part = static_cast<PartitionId>(p);
      EXPECT_EQ(venue.DoorsOf(part).begin(), base.DoorsOf(part).begin());
      EXPECT_EQ(venue.DoorsOf(part), base.DoorsOf(part));
    }
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(venue.LocateAll(probes[i]), located[i]) << "probe " << i;
    }
    const Span<TimeInterval> row = venue.DoorAti(update.door_id);
    ASSERT_EQ(row.size(), 1u);
    EXPECT_EQ(row[0].start, update.intervals[0].start);
    EXPECT_EQ(row[0].end, update.intervals[0].end);
    EXPECT_EQ(&world->router().checkpoints(), &world->checkpoints());
  }

  const std::shared_ptr<const VersionedGraph> last = catalog.world(0);
  const std::unique_ptr<Router> standalone =
      ValueOrDie(MakeRouter("itg-s", last->graph()), "MakeRouter");
  EXPECT_NE(&standalone->checkpoints(), &last->checkpoints());
  EXPECT_EQ(standalone->checkpoints().times(), last->checkpoints().times());
}

TEST(UpdateApplierTest, OldEpochStaysPinnedAndServable) {
  VenueCatalog catalog = MakeCatalog("itg-s");
  const std::shared_ptr<const VersionedGraph> pinned = catalog.world(0);
  const std::vector<double> bounds_before =
      pinned->graph().Ati(1).InteriorBoundaries();

  AtiUpdate update;
  update.door_id = 1;
  update.intervals = {MakeInterval(10, 0, 16, 0)};
  ValueOrDie(catalog.ApplyAtiUpdate(update), "ApplyAtiUpdate");

  // The pre-update world is untouched by the swap; the catalog serves
  // the new epoch.
  EXPECT_EQ(pinned->epoch(), 0u);
  EXPECT_EQ(catalog.world(0)->epoch(), 1u);
  EXPECT_NE(pinned.get(), catalog.world(0).get());
  EXPECT_EQ(pinned->graph().Ati(1).InteriorBoundaries(), bounds_before);
  EXPECT_TRUE(catalog.world(0)->graph().Ati(1).ContainsTimeOfDay(11 * 3600.0));
  EXPECT_FALSE(catalog.world(0)->graph().Ati(1).ContainsTimeOfDay(9 * 3600.0));
}

TEST(UpdateApplierTest, CarriesResidentSnapshotsOnSingleDoorUpdate) {
  // An evicting store is not needed; what matters is that snapshots are
  // RESIDENT before the update, so warm every interval first.
  RouterBuildOptions options;
  VenueCatalog catalog = MakeCatalog("itg-a+", options);
  const std::shared_ptr<const VersionedGraph> before = catalog.world(0);
  const SnapshotStore* store = before->router().snapshot_store();
  ASSERT_NE(store, nullptr);
  const size_t intervals_before = before->checkpoints().NumIntervals();
  ASSERT_GT(intervals_before, 4u) << "need a multi-checkpoint venue";
  for (size_t i = 0; i < intervals_before; ++i) store->Get(i);
  ASSERT_EQ(store->Stats().resident_snapshots, intervals_before);

  // Replace one door's hours with a window whose boundaries are new
  // checkpoint times; every interval not touching the changed door's
  // old/new applicability flips must carry.
  AtiUpdate update;
  update.door_id = 2;
  update.intervals = {MakeInterval(9, 17, 18, 43)};
  const UpdateOutcome outcome =
      ValueOrDie(catalog.ApplyAtiUpdate(update), "ApplyAtiUpdate");

  EXPECT_GT(outcome.snapshots_carried, 0u);
  EXPECT_GT(outcome.intervals_invalidated, 0u);
  // Carry + rebase + invalidate can never exceed what was resident.
  EXPECT_LE(outcome.snapshots_carried + outcome.snapshots_rebased +
                outcome.intervals_invalidated,
            intervals_before);

  // Every mask in the new store — carried, rebased, or rebuilt on
  // demand — must equal the from-scratch derivation for the new graph.
  const std::shared_ptr<const VersionedGraph> after = catalog.world(0);
  const SnapshotStore* new_store = after->router().snapshot_store();
  ASSERT_NE(new_store, nullptr);
  for (size_t i = 0; i < after->checkpoints().NumIntervals(); ++i) {
    const std::shared_ptr<const GraphSnapshot> got = new_store->Get(i);
    const GraphSnapshot expect =
        BuildSnapshot(after->graph(), after->checkpoints(), i);
    EXPECT_EQ(got->interval_index, i);
    EXPECT_TRUE(got->open == expect.open) << "interval " << i;
    EXPECT_EQ(got->open_door_count, expect.open_door_count)
        << "interval " << i;
  }
}

TEST(SnapshotStoreTest, InvalidateIntervalsDropsExactlyTheListed) {
  Venue venue = MakeVariedVenue();
  ItGraph graph = ValueOrDie(ItGraph::Build(venue), "ItGraph::Build");
  const CheckpointSet cps = CheckpointSet::FromGraph(graph);
  SnapshotStore store(graph, cps);
  const size_t n = cps.NumIntervals();
  ASSERT_GT(n, 3u);
  for (size_t i = 0; i < n; ++i) store.Get(i);
  ASSERT_EQ(store.Stats().resident_snapshots, n);

  // Out-of-range and duplicate entries are ignored; each listed
  // resident interval drops exactly once.
  const std::shared_ptr<const GraphSnapshot> pinned = store.Get(1);
  EXPECT_EQ(store.InvalidateIntervals({1, 3, 3, n + 7}), 2u);
  CacheStatsSnapshot stats = store.Stats();
  EXPECT_EQ(stats.resident_snapshots, n - 2);
  EXPECT_EQ(stats.intervals_invalidated, 2u);

  // The pinned shared_ptr survives the drop, and a re-Get rebuilds a
  // mask identical to the from-scratch derivation.
  EXPECT_TRUE(pinned->open == BuildSnapshot(graph, cps, 1).open);
  const std::shared_ptr<const GraphSnapshot> rebuilt = store.Get(1);
  EXPECT_TRUE(rebuilt->open == BuildSnapshot(graph, cps, 1).open);
  EXPECT_EQ(store.Stats().resident_snapshots, n - 1);
}

// The acceptance property: after N random online updates — including a
// midnight-wrapping replacement and one landing exactly on an existing
// checkpoint — a 200-query workload plus reachability, kNN and
// multi-stop requests on every venue answer bit-identically to a
// catalog rebuilt from scratch on the mutated venues. One venue per
// strategy, so the shared snapshot plumbing is pinned across epochs
// under every TV_Check.
TEST(RebuildEquivalenceTest, OnlineUpdatesMatchFromScratchRebuild) {
  const char* const strategies[] = {"itg-s", "itg-a", "itg-a+", "snap",
                                    "ntv"};
  FleetConfig fleet_config;
  fleet_config.num_venues = 5;
  fleet_config.seed = 21;
  fleet_config.min_floors = 1;
  fleet_config.max_floors = 2;
  std::vector<Venue> fleet =
      ValueOrDie(GenerateVenueFleet(fleet_config), "GenerateVenueFleet");

  VenueCatalog live;
  for (size_t i = 0; i < fleet.size(); ++i) {
    ValueOrDie(live.AddVenue(std::move(fleet[i]), strategies[i]),
               strategies[i]);
  }

  // Two deterministic edge cases first. #1: a midnight-wrapping
  // replacement (22:00 -> 02:00, split by normalisation). #2: a window
  // opening exactly on an existing checkpoint of venue 1.
  AtiUpdate wrap;
  wrap.venue_id = 0;
  wrap.door_id = 4;
  wrap.intervals = {TimeInterval{22 * 3600.0, 2 * 3600.0}};
  ValueOrDie(live.ApplyAtiUpdate(wrap), "wrap update");

  const std::vector<double>& cps1 = live.world(1)->checkpoints().times();
  ASSERT_FALSE(cps1.empty());
  AtiUpdate on_checkpoint;
  on_checkpoint.venue_id = 1;
  on_checkpoint.door_id = 2;
  on_checkpoint.intervals = {
      TimeInterval{cps1.front(), cps1.front() + 3 * 3600.0}};
  ValueOrDie(live.ApplyAtiUpdate(on_checkpoint), "on-checkpoint update");

  // Then a random stream across the fleet.
  UpdateStreamConfig stream_config;
  stream_config.num_updates = 30;
  stream_config.seed = 33;
  const std::vector<TimedAtiUpdate> stream =
      ValueOrDie(GenerateUpdateStream(live, stream_config), "stream");
  for (const TimedAtiUpdate& timed : stream) {
    ValueOrDie(live.ApplyAtiUpdate(timed.update), "stream update");
  }

  // From-scratch control: copy each mutated venue out of the live
  // catalog and rebuild under the same strategy.
  VenueCatalog rebuilt;
  for (size_t i = 0; i < live.NumVenues(); ++i) {
    Venue copy = live.venue(static_cast<VenueId>(i));
    ValueOrDie(rebuilt.AddVenue(std::move(copy), strategies[i]),
               strategies[i]);
    EXPECT_EQ(rebuilt.world(static_cast<VenueId>(i))->epoch(), 0u);
  }

  MultiVenueWorkloadConfig workload_config;
  workload_config.num_requests = 200;
  workload_config.seed = 77;
  workload_config.pairs_per_venue = 5;
  // Route through the snapshot store so carried snapshots are on the
  // compared path.
  workload_config.options.use_snapshot_cache = true;
  std::vector<QueryRequest> workload = ValueOrDie(
      GenerateMultiVenueWorkload(live, workload_config), "workload");
  for (size_t v = 0; v < live.NumVenues(); ++v) {
    for (QueryKind kind : {QueryKind::kReachability,
                           QueryKind::kNearestFacility,
                           QueryKind::kMultiStop}) {
      FamilyGenConfig family;
      family.kind = kind;
      family.num_queries = 4;
      family.seed = 41 + v;
      family.min_departure_seconds = 6 * 3600.0;
      family.max_departure_seconds = 26 * 3600.0;
      for (QueryRequest& request :
           ValueOrDie(GenerateFamilyQueries(live.graph(static_cast<VenueId>(v)),
                                            family),
                      "family queries")) {
        request.venue_id = static_cast<VenueId>(v);
        request.options.use_snapshot_cache = true;
        workload.push_back(std::move(request));
      }
    }
  }

  ShardedRouter live_router(live);
  ShardedRouter rebuilt_router(rebuilt);
  QueryContext live_context, rebuilt_context;
  size_t found = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    const StatusOr<QueryResult> a = live_router.Route(workload[i],
                                                      &live_context);
    const StatusOr<QueryResult> b =
        rebuilt_router.Route(workload[i], &rebuilt_context);
    ExpectSameFamilyAnswer(a, b, i);
    if (a.ok() && a->found) ++found;
  }
  EXPECT_GT(found, 0u) << "workload found no routes; test is vacuous";
  EXPECT_GT(live.Stats().total_updates_applied, 30u);
}

}  // namespace
}  // namespace itspq
