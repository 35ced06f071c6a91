// The packed-artifact subsystem (artifact/): header + section-table
// validation on hostile files (truncation, bit flips, wrong magic,
// future format versions — each a precise Status, never UB), and the
// round-trip property: a venue world rebuilt from its `.itspq` bytes
// answers a randomized workload bit-identically to the in-process
// build, for every registered strategy, midnight-wrap ATIs included.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/format.h"
#include "common/time.h"
#include "gen/workload_gen.h"
#include "itgraph/checkpoints.h"
#include "itgraph/itgraph.h"
#include "query/sharded_router.h"
#include "query/strategies.h"
#include "query/venue_catalog.h"
#include "venue/venue.h"

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

// Each test writes into its own directory under the test runner's cwd
// so parallel ctest shards never collide.
std::string TestDir(const char* name) {
  const std::string dir = std::string("artifact_test_") + name;
  std::remove((dir + "/a.itspq").c_str());
  (void)std::system(("mkdir -p " + dir).c_str());
  return dir;
}

Venue MakeSmallVenue(uint64_t seed = 7) {
  FleetConfig config;
  config.num_venues = 1;
  config.seed = seed;
  config.min_floors = 1;
  config.max_floors = 2;
  config.min_shop_rows = 2;
  config.max_shop_rows = 2;
  std::vector<Venue> fleet =
      ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
  return std::move(fleet[0]);
}

std::vector<uint8_t> EncodeSmallVenue() {
  return ValueOrDie(EncodeVenueArtifact(MakeSmallVenue()),
                    "EncodeVenueArtifact");
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// A corrupt or stale artifact must be rejected at registration with the
// same status the raw loader reports, and the catalog must stay
// untouched — no shard slot, no id burned.
void ExpectRegistrationRejected(const std::string& path, StatusCode code,
                                const std::string& message_fragment) {
  VenueCatalog catalog;
  auto id = catalog.AddArtifactShard(path, "itg-s");
  ASSERT_FALSE(id.ok()) << path;
  EXPECT_EQ(id.status().code(), code) << id.status().ToString();
  EXPECT_NE(id.status().message().find(message_fragment), std::string::npos)
      << id.status().ToString();
  EXPECT_EQ(catalog.NumVenues(), 0u);
  EXPECT_FALSE(catalog.Contains(0));
}

TEST(ArtifactNegativeTest, TruncatedFileRejected) {
  const std::string dir = TestDir("truncated");
  const std::vector<uint8_t> image = EncodeSmallVenue();

  // Cut mid-payload: the header still declares the full size.
  std::vector<uint8_t> cut(image.begin(),
                           image.begin() + static_cast<long>(image.size() / 2));
  WriteBytes(dir + "/a.itspq", cut);
  auto loaded = LoadVenueArtifact(dir + "/a.itspq");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos)
      << loaded.status().ToString();
  ExpectRegistrationRejected(dir + "/a.itspq", StatusCode::kInvalidArgument,
                             "truncated");

  // Cut inside the fixed header: too small to even carry the magic.
  std::vector<uint8_t> stub(image.begin(), image.begin() + 16);
  WriteBytes(dir + "/a.itspq", stub);
  ExpectRegistrationRejected(dir + "/a.itspq", StatusCode::kInvalidArgument,
                             "truncated");
}

TEST(ArtifactNegativeTest, FlippedPayloadByteRejectedByChecksum) {
  const std::string dir = TestDir("bitflip");
  std::vector<uint8_t> image = EncodeSmallVenue();

  // Flip one bit in the last payload byte — far from the header, so
  // only the per-section checksum can catch it.
  image[image.size() - 1] ^= 0x01;
  WriteBytes(dir + "/a.itspq", image);

  auto loaded = LoadVenueArtifact(dir + "/a.itspq");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();

  // Payload corruption is not visible to the header-only registration
  // check, so the shard registers — the damage must surface as a load
  // error on first touch, with the shard staying cold, not as UB.
  VenueCatalog catalog;
  const VenueId id =
      ValueOrDie(catalog.AddArtifactShard(dir + "/a.itspq", "itg-s"),
                 "AddArtifactShard");
  EXPECT_FALSE(catalog.IsResident(id));
  auto world = catalog.EnsureResident(id);
  ASSERT_FALSE(world.ok());
  EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(catalog.IsResident(id));
  EXPECT_EQ(catalog.Stats().total_loads, 0u);
}

TEST(ArtifactNegativeTest, FlippedTableByteRejectedByTableChecksum) {
  const std::string dir = TestDir("tableflip");
  std::vector<uint8_t> image = EncodeSmallVenue();
  // First byte past the fixed header sits in the section table.
  image[sizeof(ArtifactHeader)] ^= 0x80;
  WriteBytes(dir + "/a.itspq", image);
  ExpectRegistrationRejected(dir + "/a.itspq", StatusCode::kInvalidArgument,
                             "section table checksum mismatch");
}

TEST(ArtifactNegativeTest, WrongMagicRejected) {
  const std::string dir = TestDir("magic");
  std::vector<uint8_t> image = EncodeSmallVenue();
  image[0] = 'X';
  WriteBytes(dir + "/a.itspq", image);
  ExpectRegistrationRejected(dir + "/a.itspq", StatusCode::kInvalidArgument,
                             "bad magic");
}

TEST(ArtifactNegativeTest, FutureFormatVersionRejected) {
  const std::string dir = TestDir("version");
  std::vector<uint8_t> image = EncodeSmallVenue();
  // The version field (offset 8, after the magic) is deliberately not
  // covered by any checksum, so a version-only patch is exactly what a
  // newer builder would produce.
  const uint32_t future = kArtifactFormatVersion + 1;
  std::memcpy(image.data() + 8, &future, sizeof(future));
  WriteBytes(dir + "/a.itspq", image);
  ExpectRegistrationRejected(dir + "/a.itspq", StatusCode::kFailedPrecondition,
                             "newer than this build supports");
}

TEST(ArtifactNegativeTest, OldFormatVersionRejected) {
  const std::string dir = TestDir("oldversion");
  std::vector<uint8_t> image = EncodeSmallVenue();
  // A pre-AdjacencyCsr (v1) file: the layout genuinely differs, so the
  // reader must refuse it outright instead of guessing at sections.
  const uint32_t old_version = kArtifactFormatVersion - 1;
  std::memcpy(image.data() + 8, &old_version, sizeof(old_version));
  WriteBytes(dir + "/a.itspq", image);
  ExpectRegistrationRejected(
      dir + "/a.itspq", StatusCode::kFailedPrecondition,
      "unsupported artifact format version " + std::to_string(old_version) +
          " (supported: " + std::to_string(kArtifactFormatVersion) + ")");
}

// Structural validation behind the checksums: an AdjacencyCsr payload
// whose bytes are corrupt but whose section and table checksums have
// been faithfully recomputed (a hostile writer, not random bit rot)
// must still be rejected before the unchecked relaxation loop can
// index out of bounds.
TEST(ArtifactNegativeTest, CorruptAdjacencyEdgeRejectedByValidation) {
  const std::string dir = TestDir("adjcorrupt");
  std::vector<uint8_t> image = EncodeSmallVenue();

  ArtifactHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<ArtifactSectionEntry> table(header.section_count);
  std::memcpy(table.data(), image.data() + sizeof(header),
              table.size() * sizeof(table[0]));
  ArtifactSectionEntry* adj_entry = nullptr;
  for (ArtifactSectionEntry& e : table) {
    if (e.kind == static_cast<uint32_t>(ArtifactSection::kAdjacencyCsr)) {
      adj_entry = &e;
    }
  }
  ASSERT_NE(adj_entry, nullptr) << "v2 artifact must carry AdjacencyCsr";

  // Payload layout: u64 num_doors | u32 seg_offsets[2n+1] |
  // i32 seg_partition[2n] | u32 neighbor_ids[E] | f64 weights[E].
  uint8_t* payload = image.data() + adj_entry->offset;
  uint64_t num_doors;
  std::memcpy(&num_doors, payload, sizeof(num_doors));
  ASSERT_GT(num_doors, 0u);
  const size_t ids_at =
      8 + (2 * num_doors + 1) * sizeof(uint32_t) +
      2 * num_doors * sizeof(int32_t);
  ASSERT_LT(ids_at + sizeof(uint32_t), adj_entry->bytes);
  const uint32_t bogus = 0xFFFFFFFFu;  // id far outside [0, num_doors)
  std::memcpy(payload + ids_at, &bogus, sizeof(bogus));

  // Recompute the section checksum and the table checksum over it, so
  // only the structural validator stands between the bytes and UB.
  adj_entry->checksum = ArtifactChecksum(payload, adj_entry->bytes);
  header.table_checksum =
      ArtifactChecksum(table.data(), table.size() * sizeof(table[0]));
  std::memcpy(image.data(), &header, sizeof(header));
  std::memcpy(image.data() + sizeof(header), table.data(),
              table.size() * sizeof(table[0]));

  WriteBytes(dir + "/a.itspq", image);
  auto loaded = LoadVenueArtifact(dir + "/a.itspq");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("AdjacencyCsr"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("corrupt edge"), std::string::npos)
      << loaded.status().ToString();
}

// The loaded world carries the compiled adjacency verbatim; assembling
// a world from it must adopt that CSR (with recomputed weight
// extremes), not recompile it.
TEST(ArtifactTest, AdjacencyRoundTripsAndIsAdopted) {
  const std::string dir = TestDir("adjroundtrip");
  Venue venue = MakeSmallVenue();
  ASSERT_TRUE(WriteVenueArtifact(dir + "/a.itspq", venue).ok());
  LoadedVenueWorld world =
      ValueOrDie(LoadVenueArtifact(dir + "/a.itspq"), "LoadVenueArtifact");
  ASSERT_NE(world.adjacency, nullptr);
  EXPECT_EQ(world.adjacency->num_doors, world.venue->NumDoors());

  const CsrAdjacency fresh = CsrAdjacency::Compile(*world.venue);
  EXPECT_EQ(world.adjacency->seg_offsets, fresh.seg_offsets);
  EXPECT_EQ(world.adjacency->seg_partition, fresh.seg_partition);
  EXPECT_EQ(world.adjacency->neighbor_ids, fresh.neighbor_ids);
  EXPECT_EQ(world.adjacency->neighbor_weights, fresh.neighbor_weights);
  EXPECT_EQ(world.adjacency->min_edge_weight, fresh.min_edge_weight);
  EXPECT_EQ(world.adjacency->max_edge_weight, fresh.max_edge_weight);

  const CsrAdjacency* loaded_ptr = world.adjacency.get();
  auto published = BuildWorldFromArtifact(std::move(world), "itg-s");
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ((*published)->graph().adjacency_handle().get(), loaded_ptr);
}

TEST(ArtifactNegativeTest, UnknownStrategyRejectedAtRegistration) {
  const std::string dir = TestDir("strategy");
  WriteBytes(dir + "/a.itspq", EncodeSmallVenue());
  VenueCatalog catalog;
  auto id = catalog.AddArtifactShard(dir + "/a.itspq", "no-such-strategy");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.NumVenues(), 0u);
}

// Every strategy name resolves both ways, and an unknown one is
// kNotFound at each entry point that takes a name — the catalog stays
// as it was and no id is burnt.
TEST(StrategyNameTest, NamesRoundTripAndUnknownIsNotFoundEverywhere) {
  const Venue venue = MakeSmallVenue();
  const ItGraph graph = ValueOrDie(ItGraph::Build(venue), "ItGraph::Build");
  for (TvCheck check : kTvChecks) {
    const std::string name = TvCheckName(check);
    EXPECT_EQ(ValueOrDie(ParseTvCheck(name), "ParseTvCheck"), check) << name;
    EXPECT_EQ(ValueOrDie(MakeRouter(name, graph), "MakeRouter")->name(), name);
  }

  const std::string dir = TestDir("names");
  const std::string path = dir + "/a.itspq";
  WriteBytes(path, EncodeSmallVenue());
  VenueCatalog catalog;
  EXPECT_EQ(ValueOrDie(catalog.AddVenue(Venue(venue), "itg-s"), "AddVenue"),
            0);
  for (const char* unknown : {"", "ITG-S", "itg-z", "itg-a++", "itg-s "}) {
    EXPECT_EQ(ParseTvCheck(unknown).status().code(), StatusCode::kNotFound)
        << unknown;
    EXPECT_EQ(MakeRouter(unknown, graph).status().code(),
              StatusCode::kNotFound)
        << unknown;
    EXPECT_EQ(catalog.AddVenue(Venue(venue), unknown).status().code(),
              StatusCode::kNotFound)
        << unknown;
    EXPECT_EQ(catalog.AddArtifactShard(path, unknown).status().code(),
              StatusCode::kNotFound)
        << unknown;
    EXPECT_EQ(catalog.NumVenues(), 1u) << unknown;
  }
  EXPECT_EQ(ValueOrDie(catalog.AddArtifactShard(path, "ntv"),
                       "AddArtifactShard"),
            1);
  const CatalogStats stats = catalog.Stats();
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_EQ(stats.shards[0].strategy, "itg-s");
  EXPECT_EQ(stats.shards[1].strategy, "ntv");
}

TEST(ArtifactNegativeTest, MissingFileRejected) {
  VenueCatalog catalog;
  auto id = catalog.AddArtifactShard("no/such/dir/a.itspq", "itg-s");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.NumVenues(), 0u);
}

// The boundary ledger an artifact carries equals the probe reference
// (CheckpointSet::FromGraph + BoundaryFlipIndex::Build) on a seeded
// fleet, midnight-wrap schedules included.
TEST(ArtifactTest, DecodedLedgerMatchesProbeBuild) {
  FleetConfig config;
  config.num_venues = 3;
  config.seed = 11;
  config.min_floors = 1;
  config.max_floors = 2;
  std::vector<Venue> fleet =
      ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
  {
    Venue::Builder wrap = Venue::Builder::FromVenue(fleet[0]);
    for (DoorId d = 0; d < static_cast<DoorId>(fleet[0].NumDoors()); d += 3) {
      ASSERT_TRUE(
          wrap.SetDoorAti(d, {TimeInterval{22 * 3600.0, 2 * 3600.0}}).ok());
    }
    fleet.push_back(ValueOrDie(std::move(wrap).Build(), "wrap Build"));
  }

  for (size_t v = 0; v < fleet.size(); ++v) {
    const std::vector<uint8_t> image =
        ValueOrDie(EncodeVenueArtifact(fleet[v]), "EncodeVenueArtifact");
    const LoadedVenueWorld decoded = ValueOrDie(
        DecodeVenueArtifact(image.data(), image.size()), "DecodeVenueArtifact");
    const ItGraph graph =
        ValueOrDie(ItGraph::Build(fleet[v]), "ItGraph::Build");
    const CheckpointSet probe_cps = CheckpointSet::FromGraph(graph);
    EXPECT_EQ(decoded.checkpoint_times, probe_cps.times()) << "venue " << v;

    const BoundaryFlipIndex probe = BoundaryFlipIndex::Build(graph, probe_cps);
    ASSERT_GT(probe.NumBoundaries(), 0u) << "venue " << v;
    ASSERT_EQ(decoded.flip_lists.size(), probe.NumBoundaries())
        << "venue " << v;
    for (size_t b = 0; b < probe.NumBoundaries(); ++b) {
      const std::vector<DoorId> from_probe(probe.FlipsBegin(b),
                                           probe.FlipsEnd(b));
      EXPECT_EQ(decoded.flip_lists[b], from_probe)
          << "venue " << v << " boundary " << b;
    }
  }
}

// The metadata round-trips: label, D2D flag, and the manifest loader's
// relative-path resolution.
TEST(ArtifactTest, LabelAndD2dRoundTrip) {
  const std::string dir = TestDir("meta");
  Venue venue = MakeSmallVenue();
  ArtifactWriteOptions options;
  options.include_d2d = true;
  options.label = "flagship";
  ASSERT_TRUE(WriteVenueArtifact(dir + "/a.itspq", venue, options).ok());

  LoadedVenueWorld world =
      ValueOrDie(LoadVenueArtifact(dir + "/a.itspq"), "LoadVenueArtifact");
  EXPECT_EQ(world.label, "flagship");
  const size_t n = world.venue->NumDoors();
  ASSERT_EQ(world.d2d_matrix.size(), n * n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(world.d2d_matrix[i * n + i], 0.0);

  {
    std::ofstream manifest(dir + "/fleet.manifest");
    manifest << "# comment\n\na.itspq\n";
  }
  auto listed = ReadFleetManifest(dir + "/fleet.manifest");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0], dir + "/a.itspq");
}

// The tentpole property: for EVERY registered strategy, a shard loaded
// from its artifact answers a 200-query randomized workload
// bit-identically to the same venue built in-process — including a
// venue whose ATIs wrap past midnight (the normalisation-sensitive
// case: wrapped intervals are split at 0/86400 during compilation, and
// the artifact carries both the raw and the compiled form).
TEST(ArtifactRoundTripTest, LoadedWorldAnswersBitIdenticallyPerStrategy) {
  const std::string dir = TestDir("roundtrip");

  // Venue 0: generator output as-is. Venue 1: same geometry with every
  // third door forced onto a 22:00 -> 02:00 midnight-wrap schedule.
  std::vector<Venue> sources;
  sources.push_back(MakeSmallVenue(7));
  {
    const Venue& base = sources[0];
    Venue::Builder wrap = Venue::Builder::FromVenue(base);
    for (DoorId d = 0; d < static_cast<DoorId>(base.NumDoors()); d += 3) {
      ASSERT_TRUE(
          wrap.SetDoorAti(d, {TimeInterval{22 * 3600.0, 2 * 3600.0}}).ok());
    }
    sources.push_back(ValueOrDie(std::move(wrap).Build(), "wrap Build"));
  }

  for (TvCheck check : kTvChecks) {
    const std::string strategy = TvCheckName(check);
    VenueCatalog eager, loaded;
    for (size_t i = 0; i < sources.size(); ++i) {
      const std::string path =
          dir + "/" + strategy + "_" + std::to_string(i) + ".itspq";
      ASSERT_TRUE(WriteVenueArtifact(path, sources[i]).ok()) << path;
      (void)ValueOrDie(eager.AddVenue(Venue(sources[i]), strategy),
                       strategy.c_str());
      (void)ValueOrDie(loaded.AddArtifactShard(path, strategy),
                       strategy.c_str());
    }

    MultiVenueWorkloadConfig workload;
    workload.num_requests = 200;
    workload.seed = 1234;
    workload.pairs_per_venue = 6;
    std::vector<QueryRequest> requests = ValueOrDie(
        GenerateMultiVenueWorkload(eager, workload), "workload");
    // Exercise the snapshot read path too where the strategy has one.
    for (size_t i = 0; i < requests.size(); i += 2) {
      requests[i].options.use_snapshot_cache = true;
    }

    ShardedRouter expect_router(eager), got_router(loaded);
    QueryContext expect_context, got_context;
    for (size_t i = 0; i < requests.size(); ++i) {
      auto expect = expect_router.Route(requests[i], &expect_context);
      auto got = got_router.Route(requests[i], &got_context);
      ASSERT_EQ(expect.ok(), got.ok())
          << strategy << " #" << i << ": " << got.status().ToString();
      if (!expect.ok()) continue;
      ASSERT_EQ(expect->found, got->found) << strategy << " #" << i;
      if (!expect->found) continue;
      // Bit-identical, not approximately equal: the artifact carries
      // the exact doubles the in-process build computes.
      EXPECT_EQ(expect->path.length_m(), got->path.length_m())
          << strategy << " #" << i;
      EXPECT_EQ(expect->path.steps().size(), got->path.steps().size())
          << strategy << " #" << i;
    }

    const CatalogStats stats = loaded.Stats();
    EXPECT_EQ(stats.lazy_shards, sources.size());
    EXPECT_EQ(stats.resident_shards, sources.size());  // all touched
    EXPECT_EQ(stats.total_loads, sources.size());      // exactly once each
  }
}

}  // namespace
}  // namespace itspq
