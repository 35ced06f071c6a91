// Micro-benchmarks (google-benchmark) for the hot primitives underneath
// the ITSPQ search: ATI membership, checkpoint lookup, reduced-graph
// derivation, point location, frontier disciplines, a venue's boundary
// ledger and whole compile, and end-to-end queries.
//
// A primitive that takes a few nanoseconds is timed over a batch of
// kBatch calls per iteration: a row of a few ns moved by more than the
// CI gate's 25% between two runs of one binary, a row of hundreds of ns
// does not. The batch is part of the row name (its arg), so the gate
// never compares a batched row with an unbatched one.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "itgraph/frontier_queue.h"
#include "itgraph/graph_update.h"
#include "update/versioned_graph.h"

namespace itspq {
namespace bench {
namespace {

constexpr int kBatch = 64;

const World& SharedWorld() {
  static World* world = new World(BuildWorld(kDefaultT, /*floors=*/2));
  return *world;
}

// The row scan the search runs (AtiRow::ContainsTimeOfDay). Named apart
// from BM_AtiContains, a binary-search row of earlier builds, so
// bench_diff never pairs the two disciplines.
void BM_AtiRowScan(benchmark::State& state) {
  const AtiSet set = *AtiSet::Create(
      {MakeInterval(8, 0, 12, 0), MakeInterval(13, 0, 18, 0),
       MakeInterval(19, 0, 23, 0)});
  const AtiRow atis = set.row();
  double tod = 0;
  for (auto _ : state) {
    for (int k = 0; k < kBatch; ++k) {
      benchmark::DoNotOptimize(atis.ContainsTimeOfDay(tod));
      tod += 977.0;
      if (tod >= kSecondsPerDay) tod -= kSecondsPerDay;
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_AtiRowScan)->Arg(kBatch)->ArgName("batch");

void BM_CheckpointLookup(benchmark::State& state) {
  std::vector<double> times;
  for (int i = 1; i <= state.range(0); ++i) {
    times.push_back(i * kSecondsPerDay / (state.range(0) + 1));
  }
  const CheckpointSet cps = *CheckpointSet::FromTimes(times);
  double tod = 0;
  for (auto _ : state) {
    for (int k = 0; k < kBatch; ++k) {
      benchmark::DoNotOptimize(cps.NextCheckpoint(tod));
      tod += 977.0;
      if (tod >= kSecondsPerDay) tod -= kSecondsPerDay;
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_CheckpointLookup)
    ->ArgNames({"checkpoints", "batch"})
    ->Args({4, kBatch})
    ->Args({16, kBatch});

void BM_GraphUpdate(benchmark::State& state) {
  const World& world = SharedWorld();
  const CheckpointSet cps = CheckpointSet::FromGraph(*world.graph);
  int idx = 0;
  for (auto _ : state) {
    GraphSnapshot snap = BuildSnapshot(*world.graph, cps, idx);
    benchmark::DoNotOptimize(snap.open_door_count);
    idx = (idx + 1) % static_cast<int>(cps.NumIntervals());
  }
}
// ~2 us a call, but its medians moved by up to ~24% between runs of one
// binary at the default 0.05 s per run; a longer run steadies them.
BENCHMARK(BM_GraphUpdate)->MinTime(0.25);

void BM_GraphUpdateDelta(benchmark::State& state) {
  const World& world = SharedWorld();
  const CheckpointSet cps = CheckpointSet::FromGraph(*world.graph);
  const BoundaryFlipIndex flips = BoundaryFlipIndex::Build(*world.graph, cps);
  std::vector<GraphSnapshot> snaps;
  for (size_t i = 0; i < cps.NumIntervals(); ++i) {
    snaps.push_back(BuildSnapshot(*world.graph, cps, i));
  }
  size_t i = 0;
  for (auto _ : state) {
    GraphSnapshot snap =
        BuildSnapshotDelta(*world.graph, cps, flips, snaps[i], i + 1);
    benchmark::DoNotOptimize(snap.open_door_count);
    i = (i + 1) % (cps.NumIntervals() - 1);
  }
}
BENCHMARK(BM_GraphUpdateDelta);

void BM_PointLocation(benchmark::State& state) {
  const World& world = SharedWorld();
  Rng rng(5);
  std::vector<IndoorPoint> probes;
  for (int i = 0; i < 256; ++i) {
    probes.push_back(IndoorPoint{{rng.UniformDouble(0, 1368),
                                  rng.UniformDouble(0, 1368)},
                                 0});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.venue->LocateAll(probes[i & 255]));
    ++i;
  }
}
BENCHMARK(BM_PointLocation);

void BM_FrontierQueue(benchmark::State& state, FrontierQueue::Kind kind) {
  // A synthetic Dijkstra-shaped workload: pushes drift upward from the
  // running pop frontier (as relaxations do), ~2 pushes per pop until
  // the tail drains. Each discipline is its own named row, so a diff
  // never pairs rows of two disciplines.
  constexpr size_t kOps = 4096;
  Rng rng(17);
  std::vector<double> jitter(kOps);
  for (double& j : jitter) j = rng.UniformDouble(1.0, 32.0);
  FrontierQueue q;
  for (auto _ : state) {
    if (kind == FrontierQueue::Kind::kFourAryHeap) {
      q.ResetHeap();
    } else {
      q.ResetBuckets(1.0, kind);
    }
    q.Push(0.0, 0);
    double frontier = 0.0;
    uint32_t id;
    size_t pushed = 1;
    while (q.Pop(&frontier, &id)) {
      for (int c = 0; c < 2 && pushed < kOps; ++c, ++pushed) {
        q.Push(frontier + jitter[pushed], static_cast<uint32_t>(pushed));
      }
    }
    benchmark::DoNotOptimize(frontier);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kOps));
}
BENCHMARK_CAPTURE(BM_FrontierQueue, four_ary_heap,
                  FrontierQueue::Kind::kFourAryHeap);
BENCHMARK_CAPTURE(BM_FrontierQueue, dial, FrontierQueue::Kind::kBucketQueue);
BENCHMARK_CAPTURE(BM_FrontierQueue, sorted_dial,
                  FrontierQueue::Kind::kSortedBucketQueue);

// The boundary ledger alone (BoundaryLedger::Build): the checkpoint set
// and flip index of an interactive-size venue (two floors of three shop
// rows, 338 doors) and of the paper-size mall (five floors of four,
// 1,128 doors). BM_VenueCompile times it as one part of a compile.
void BM_BoundaryLedger(benchmark::State& state, int floors, int shop_rows) {
  MallConfig mc = MallConfig::Paper();
  mc.floors = floors;
  mc.shop_rows = shop_rows;
  AtiGenConfig ac;
  ac.checkpoint_count = kDefaultT;
  const Venue venue = *AssignTemporalVariations(*GenerateMall(mc), ac);
  const ItGraph graph = *ItGraph::Build(venue);
  for (auto _ : state) {
    BoundaryLedger ledger = BoundaryLedger::Build(graph);
    benchmark::DoNotOptimize(ledger);
  }
}
BENCHMARK_CAPTURE(BM_BoundaryLedger, doors_338, 2, 3);
BENCHMARK_CAPTURE(BM_BoundaryLedger, doors_1128, 5, 4);

// Compiling one epoch of a paper-size mall (five floors, 1,128 doors):
// the ATI rows, the adjacency and its weight extremes, the boundary
// ledger and the router, as every catalog build pays it per venue. The
// venue copy Build consumes is made outside the timed region.
void BM_VenueCompile(benchmark::State& state) {
  static const World* world = new World(BuildWorld(kDefaultT, /*floors=*/5));
  for (auto _ : state) {
    state.PauseTiming();
    Venue copy(*world->venue);
    state.ResumeTiming();
    auto version = VersionedGraph::Build(std::move(copy),
                                         TvCheck::kAsynchronousStrict);
    benchmark::DoNotOptimize(version);
  }
}
BENCHMARK(BM_VenueCompile);

void BM_QueryEndToEnd(benchmark::State& state) {
  const World& world = SharedWorld();
  static std::vector<QueryInstance>* queries = new std::vector<QueryInstance>(
      MakeWorkload(world, 900, /*pairs=*/3));
  const Router& router = [&]() -> const Router& {
    static std::unique_ptr<Router> itg_s =
        MakeRouterOrDie(SharedWorld(), "itg-s");
    static std::unique_ptr<Router> itg_a =
        MakeRouterOrDie(SharedWorld(), "itg-a");
    return state.range(0) == 1 ? *itg_a : *itg_s;
  }();
  // Arg 2: itg-s in exact mode (Alg. 1's partition pruning off), the
  // goal-directed A* path — the pruned default keeps plain Dijkstra
  // order to reproduce the paper's answers.
  QueryOptions options;
  if (state.range(0) == 2) options.partition_visited_pruning = false;
  QueryContext context;
  size_t i = 0;
  for (auto _ : state) {
    const QueryInstance& q = (*queries)[i % queries->size()];
    auto r = router.Route(
        QueryRequest{q.ps, q.pt, Instant::FromHMS(12), options}, &context);
    benchmark::DoNotOptimize(r);
    ++i;
  }
}
BENCHMARK(BM_QueryEndToEnd)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace bench
}  // namespace itspq

BENCHMARK_MAIN();
