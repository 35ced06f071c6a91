// Allocation ledger of the venue world. This binary replaces the global
// operator new/delete with counting ones (every other test binary keeps
// the default allocator) and pins two properties of the flat layout:
//
//   - copying a Venue, ItGraph::Build, one ATI update (Venue::WithDoorAti,
//     then ItGraph::BuildFrom, as UpdateApplier::Apply does), compiling a whole
//     epoch (VersionedGraph::Build, under every strategy) and a cold
//     load (DecodeVenueArtifact + BuildWorldFromArtifact of an in-memory
//     image) each make a fixed number of allocations, the same for a
//     small mall as for one with twice the doors: nothing is allocated
//     per door, partition or cell;
//   - that update allocates fewer bytes than a plain Venue copy: it
//     shares the venue's geometry and copies only interval rows;
//   - Venue::MemoryUsage() + ItGraph::MemoryUsage() covers every byte
//     the two hold on the heap, so residency budgets never undercount.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "gen/ati_gen.h"
#include "gen/venue_gen.h"
#include "itgraph/itgraph.h"
#include "query/strategies.h"
#include "update/versioned_graph.h"
#include "venue/venue.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_allocated_bytes{0};
std::atomic<int64_t> g_live_bytes{0};

// Each block carries its size in a header, so delete can retire it
// from the live count; 16 bytes keep malloc's alignment.
constexpr size_t kHeader = 16;

}  // namespace

void* operator new(size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(block) = size;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<int64_t>(size),
                         std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeader;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(static_cast<int64_t>(*static_cast<size_t*>(block)),
                         std::memory_order_relaxed);
  std::free(block);
}

void operator delete(void* p, size_t) noexcept { operator delete(p); }

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

/// A two-floor mall with `shop_rows` rows of shops per floor and
/// generated temporal variations.
Venue MakeMall(int shop_rows) {
  MallConfig config = MallConfig::Paper();
  config.floors = 2;
  config.shop_rows = shop_rows;
  const Venue mall = ValueOrDie(GenerateMall(config), "GenerateMall");
  return ValueOrDie(AssignTemporalVariations(mall, AtiGenConfig{}),
                    "AssignTemporalVariations");
}

/// Allocations `fn` makes, including what it frees before returning;
/// `bytes`, when given, receives the bytes they asked for.
template <typename Fn>
uint64_t CountAllocations(Fn fn, uint64_t* bytes = nullptr) {
  const uint64_t before = g_allocations.load();
  const uint64_t bytes_before = g_allocated_bytes.load();
  fn();
  if (bytes != nullptr) *bytes = g_allocated_bytes.load() - bytes_before;
  return g_allocations.load() - before;
}

struct Ledger {
  size_t doors = 0;
  uint64_t copy_venue = 0;
  uint64_t copy_venue_bytes = 0;
  uint64_t build_graph = 0;
  uint64_t update = 0;
  uint64_t update_bytes = 0;
  std::vector<uint64_t> build_version;  // one per strategy, kTvChecks order
  uint64_t cold_load = 0;
};

Ledger Measure(const Venue& venue) {
  Ledger ledger;
  ledger.doors = venue.NumDoors();
  ledger.copy_venue = CountAllocations([&venue] { Venue copy(venue); },
                                       &ledger.copy_venue_bytes);
  ledger.build_graph = CountAllocations([&venue] {
    ValueOrDie(ItGraph::Build(venue), "ItGraph::Build");
  });
  const ItGraph graph = ValueOrDie(ItGraph::Build(venue), "ItGraph::Build");
  const auto door = static_cast<DoorId>(venue.NumDoors() / 2);
  const std::vector<TimeInterval> row = {MakeInterval(9, 0, 17, 30)};
  ledger.update = CountAllocations(
      [&venue, &graph, &row, door] {
        const Venue next =
            ValueOrDie(venue.WithDoorAti(door, row), "WithDoorAti");
        ValueOrDie(ItGraph::BuildFrom(graph, next, door), "BuildFrom");
      },
      &ledger.update_bytes);
  for (TvCheck check : kTvChecks) {
    Venue copy(venue);
    ledger.build_version.push_back(CountAllocations([&copy, check] {
      ValueOrDie(VersionedGraph::Build(std::move(copy), check),
                 "VersionedGraph::Build");
    }));
  }
  const std::vector<uint8_t> image =
      ValueOrDie(EncodeVenueArtifact(venue), "EncodeVenueArtifact");
  ledger.cold_load = CountAllocations([&image] {
    ValueOrDie(BuildWorldFromArtifact(
                   ValueOrDie(DecodeVenueArtifact(image.data(), image.size()),
                              "DecodeVenueArtifact"),
                   TvCheck::kSynchronous),
               "BuildWorldFromArtifact");
  });
  return ledger;
}

TEST(AllocationLedgerTest, VenueWorldAllocationsDoNotGrowWithTheVenue) {
  const Ledger small = Measure(MakeMall(2));
  const Ledger large = Measure(MakeMall(4));
  ASSERT_GT(large.doors, small.doors + small.doors / 2);
  RecordProperty("copy_venue", static_cast<int>(large.copy_venue));
  RecordProperty("build_graph", static_cast<int>(large.build_graph));
  RecordProperty("update", static_cast<int>(large.update));
  RecordProperty("update_bytes", static_cast<int>(large.update_bytes));
  RecordProperty("copy_venue_bytes", static_cast<int>(large.copy_venue_bytes));
  RecordProperty("cold_load", static_cast<int>(large.cold_load));
  EXPECT_EQ(small.copy_venue, large.copy_venue);
  EXPECT_EQ(small.build_graph, large.build_graph);
  EXPECT_EQ(small.update, large.update);
  EXPECT_EQ(small.build_version, large.build_version);
  EXPECT_EQ(small.cold_load, large.cold_load);
  for (const Ledger* ledger : {&small, &large}) {
    EXPECT_LT(ledger->update_bytes, ledger->copy_venue_bytes)
        << ledger->doors << " doors";
  }
}

TEST(AllocationLedgerTest, MemoryUsageCoversTheLiveBytes) {
  for (int shop_rows : {2, 4}) {
    const Venue source = MakeMall(shop_rows);
    const int64_t before = g_live_bytes.load();
    const Venue venue(source);
    const ItGraph graph = ValueOrDie(ItGraph::Build(venue), "ItGraph::Build");
    const int64_t live = g_live_bytes.load() - before;
    ASSERT_GT(live, 0);
    EXPECT_GE(venue.MemoryUsage() + graph.MemoryUsage(),
              static_cast<size_t>(live))
        << shop_rows << " shop rows";
  }
}

}  // namespace
}  // namespace itspq
