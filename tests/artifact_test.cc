// The packed-artifact subsystem (artifact/): header + section-table
// validation on hostile files (truncation, bit flips, wrong magic,
// future format versions — each a precise Status, never UB), and the
// round-trip property: a venue world rebuilt from its `.itspq` bytes
// answers a randomized workload bit-identically to the in-process
// build, for every registered strategy, midnight-wrap ATIs included.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
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

// An artifact image taken apart into its sections' kinds and payloads,
// in table order.
using Sections = std::vector<std::pair<uint32_t, std::vector<uint8_t>>>;

Sections SplitSections(const std::vector<uint8_t>& image) {
  ArtifactHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<ArtifactSectionEntry> table(header.section_count);
  std::memcpy(table.data(), image.data() + sizeof(header),
              table.size() * sizeof(table[0]));
  Sections sections;
  for (const ArtifactSectionEntry& e : table) {
    const auto begin = image.begin() + static_cast<long>(e.offset);
    sections.emplace_back(
        e.kind,
        std::vector<uint8_t>(begin, begin + static_cast<long>(e.bytes)));
  }
  return sections;
}

// Recomputes every section checksum and the table checksum of an edited
// image, as a hostile writer would, so only the decoder's structural
// and semantic checks stand between the bytes and the serving world.
void Reseal(std::vector<uint8_t>* image) {
  ArtifactHeader header;
  std::memcpy(&header, image->data(), sizeof(header));
  std::vector<ArtifactSectionEntry> table(header.section_count);
  std::memcpy(table.data(), image->data() + sizeof(header),
              table.size() * sizeof(table[0]));
  for (ArtifactSectionEntry& e : table) {
    e.checksum = ArtifactChecksum(image->data() + e.offset, e.bytes);
  }
  header.table_checksum =
      ArtifactChecksum(table.data(), table.size() * sizeof(table[0]));
  std::memcpy(image->data(), &header, sizeof(header));
  std::memcpy(image->data() + sizeof(header), table.data(),
              table.size() * sizeof(table[0]));
}

// Lays `sections` out as the encoder does (header, table, payloads in
// order) and seals the result.
std::vector<uint8_t> Assemble(const Sections& sections) {
  ArtifactHeader header = {};
  std::memcpy(header.magic, kArtifactMagic, sizeof(header.magic));
  header.format_version = kArtifactFormatVersion;
  header.endian_tag = kArtifactEndianTag;
  header.header_bytes = sizeof(ArtifactHeader);
  header.section_count = static_cast<uint32_t>(sections.size());
  std::vector<ArtifactSectionEntry> table(sections.size());
  std::vector<uint8_t> image(sizeof(header) + table.size() * sizeof(table[0]));
  for (size_t i = 0; i < sections.size(); ++i) {
    table[i] = {sections[i].first, 0, image.size(), sections[i].second.size(),
                0};
    image.insert(image.end(), sections[i].second.begin(),
                 sections[i].second.end());
  }
  header.file_bytes = image.size();
  std::memcpy(image.data(), &header, sizeof(header));
  std::memcpy(image.data() + sizeof(header), table.data(),
              table.size() * sizeof(table[0]));
  Reseal(&image);
  return image;
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
  // A v4 file still carries the CompiledAtis, Checkpoints and FlipIndex
  // sections, and a v3 file the DoorsOf section too: the layout
  // genuinely differs, so the reader must refuse each outright, naming
  // both versions, instead of guessing at sections.
  for (const uint32_t old_version :
       {kArtifactFormatVersion - 1, kArtifactFormatVersion - 2}) {
    std::vector<uint8_t> image = EncodeSmallVenue();
    std::memcpy(image.data() + 8, &old_version, sizeof(old_version));
    WriteBytes(dir + "/a.itspq", image);
    ExpectRegistrationRejected(
        dir + "/a.itspq", StatusCode::kFailedPrecondition,
        "unsupported artifact format version " + std::to_string(old_version) +
            " (supported: " + std::to_string(kArtifactFormatVersion) + ")");
  }
}

// Little-endian field access into one section payload.
template <typename T>
T Get(const std::vector<uint8_t>& payload, size_t at) {
  T value;
  std::memcpy(&value, payload.data() + at, sizeof(value));
  return value;
}
template <typename T>
void Set(std::vector<uint8_t>* payload, size_t at, T value) {
  std::memcpy(payload->data() + at, &value, sizeof(value));
}

std::vector<uint8_t>* Payload(Sections* sections, ArtifactSection kind) {
  for (auto& [k, payload] : *sections) {
    if (k == static_cast<uint32_t>(kind)) return &payload;
  }
  ADD_FAILURE() << "no section of kind " << static_cast<uint32_t>(kind);
  std::abort();
}

// Hands the first stored source interval to door 0 and overwrites it
// with `bad`. DoorAtis is u64 offsets[doors + 1], then the intervals
// (f64 start, f64 end): raising every offset past the first to at least
// 1 keeps them non-decreasing.
void BreakFirstInterval(Sections* s, uint64_t doors, TimeInterval bad) {
  std::vector<uint8_t>* p = Payload(s, ArtifactSection::kDoorAtis);
  ASSERT_GT(Get<uint64_t>(*p, doors * 8), 0u);
  for (uint64_t d = 1; d <= doors; ++d) {
    Set<uint64_t>(p, d * 8, std::max<uint64_t>(Get<uint64_t>(*p, d * 8), 1));
  }
  Set<TimeInterval>(p, (doors + 1) * 8, bad);
}

// One corruption behind the checksums and the section that must reject
// it. `fragment` is the message text the rejection carries.
struct SectionCase {
  const char* name;
  const char* section;
  const char* fragment;
  void (*corrupt)(Sections*, uint64_t partitions, uint64_t doors);
};

const SectionCase kSectionCases[] = {
    {"NaN partition bound", "Partitions", "partition 0 rectangle is not finite",
     [](Sections* s, uint64_t, uint64_t) {
       // Partition record: f64 min x/y, f64 max x/y, i32 floor, pad.
       Set<double>(Payload(s, ArtifactSection::kPartitions), 8, std::nan(""));
     }},
    {"infinite partition bound", "Partitions", "rectangle is not finite",
     [](Sections* s, uint64_t P, uint64_t) {
       Set<double>(Payload(s, ArtifactSection::kPartitions), (P - 1) * 40 + 16,
                   HUGE_VAL);
     }},
    {"door to unknown partition", "Doors", "unknown partition",
     [](Sections* s, uint64_t P, uint64_t) {
       // Door record: f64 x, f64 y, i32 floor, i32 partitions[2], pad.
       Set<int32_t>(Payload(s, ArtifactSection::kDoors), 20,
                    static_cast<int32_t>(P));
     }},
    {"NaN door position", "Doors", "position is not finite",
     [](Sections* s, uint64_t, uint64_t n) {
       Set<double>(Payload(s, ArtifactSection::kDoors), (n - 1) * 32 + 8,
                   std::nan(""));
     }},
    {"infinite door position", "Doors", "position is not finite",
     [](Sections* s, uint64_t, uint64_t) {
       Set<double>(Payload(s, ArtifactSection::kDoors), 0, -HUGE_VAL);
     }},
    {"door joins a partition to itself", "Doors",
     "door 0 connects a partition to itself",
     [](Sections* s, uint64_t, uint64_t) {
       std::vector<uint8_t>* p = Payload(s, ArtifactSection::kDoors);
       Set<int32_t>(p, 24, Get<int32_t>(*p, 20));
     }},
    {"zero-width partition", "Partitions",
     "partition 0 has a degenerate rectangle",
     [](Sections* s, uint64_t, uint64_t) {
       std::vector<uint8_t>* p = Payload(s, ArtifactSection::kPartitions);
       Set<double>(p, 16, Get<double>(*p, 0));
     }},
    {"inverted partition", "Partitions",
     "has a degenerate rectangle",
     [](Sections* s, uint64_t P, uint64_t) {
       // The last partition's min x and max x swapped.
       std::vector<uint8_t>* p = Payload(s, ArtifactSection::kPartitions);
       const uint64_t at = (P - 1) * 40;
       const double min_x = Get<double>(*p, at);
       Set<double>(p, at, Get<double>(*p, at + 16));
       Set<double>(p, at + 16, min_x);
     }},
    {"NaN source interval", "DoorAtis",
     "door 0: ATI interval outside [0, 86400]",
     [](Sections* s, uint64_t, uint64_t n) {
       BreakFirstInterval(s, n, TimeInterval{std::nan(""), 3600});
     }},
    {"source interval out of range", "DoorAtis",
     "door 0: ATI interval outside [0, 86400]",
     [](Sections* s, uint64_t, uint64_t n) {
       BreakFirstInterval(s, n, TimeInterval{0, kSecondsPerDay + 1});
     }},
    {"zero-length source interval", "DoorAtis",
     "door 0: zero-length ATI interval",
     [](Sections* s, uint64_t, uint64_t n) {
       BreakFirstInterval(s, n, TimeInterval{3600, 3600});
     }},
    {"duplicate section", "DoorAtis", "duplicate section",
     [](Sections* s, uint64_t, uint64_t) {
       s->emplace_back(static_cast<uint32_t>(ArtifactSection::kDoorAtis),
                       *Payload(s, ArtifactSection::kDoorAtis));
     }},
    {"missing required section", "DoorAtis", "missing required section",
     [](Sections* s, uint64_t, uint64_t) {
       s->erase(std::remove_if(s->begin(), s->end(),
                               [](const auto& section) {
                                 return section.first ==
                                        static_cast<uint32_t>(
                                            ArtifactSection::kDoorAtis);
                               }),
                s->end());
     }},
};

// The rejection of `image` on load: decoding, then building the world.
std::string LoadError(const std::vector<uint8_t>& image) {
  auto decoded = DecodeVenueArtifact(image.data(), image.size());
  Status status = decoded.status();
  if (decoded.ok()) {
    status = BuildWorldFromArtifact(*std::move(decoded), "itg-s").status();
  }
  if (status.ok()) return "loaded";
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  return status.message();
}
std::string LoadError(const Sections& sections) {
  return LoadError(Assemble(sections));
}

// Applies each case to a fresh split of the small venue's image and
// expects its section's rejection.
template <size_t N>
void ExpectEachRejected(const SectionCase (&cases)[N]) {
  const std::vector<uint8_t> image = EncodeSmallVenue();
  ASSERT_EQ(Assemble(SplitSections(image)), image);
  Sections plain = SplitSections(image);
  // Meta: u64 partitions, u64 doors, u64 label length, label.
  const std::vector<uint8_t>& meta = *Payload(&plain, ArtifactSection::kMeta);
  const uint64_t partitions = Get<uint64_t>(meta, 0);
  const uint64_t doors = Get<uint64_t>(meta, 8);

  for (const SectionCase& c : cases) {
    SCOPED_TRACE(c.name);
    Sections sections = SplitSections(image);
    c.corrupt(&sections, partitions, doors);
    const std::string message = LoadError(sections);
    EXPECT_NE(message.find(c.section), std::string::npos) << message;
    EXPECT_NE(message.find(c.fragment), std::string::npos) << message;
  }
}

// Every section's semantic check, pinned through a re-sealed image: the
// rejection is kInvalidArgument and names the section at fault.
TEST(ArtifactSectionRejectionTest, EverySectionRejectsItsBrokenInvariant) {
  ExpectEachRejected(kSectionCases);
}

// Bytes past a section's last field are rejected in every section, by
// that section's name.
TEST(ArtifactSectionRejectionTest, TrailingBytesRejectedInEverySection) {
  const Sections sections = SplitSections(EncodeSmallVenue());
  ASSERT_EQ(sections.size(), 4u);
  // Indexed by section kind.
  const char* const names[] = {"", "Meta", "Partitions", "Doors", "DoorAtis"};
  for (size_t i = 0; i < sections.size(); ++i) {
    Sections padded = sections;
    padded[i].second.resize(padded[i].second.size() + 8, 0);
    const char* name = names[padded[i].first];
    SCOPED_TRACE(name);
    const std::string message = LoadError(padded);
    EXPECT_NE(message.find(std::string("section ") + name), std::string::npos)
        << message;
  }
}

// The section table lists each section the format defines exactly once
// and nothing else: an undefined kind, a retired one (13 is v5's Ledger,
// 7 v6's FloorIndex) or a non-zero reserved word is refused on load and
// at registration.
TEST(ArtifactSectionRejectionTest, UndefinedTableEntriesRejected) {
  const std::string dir = TestDir("table");
  const std::vector<uint8_t> image = EncodeSmallVenue();
  struct Case {
    std::vector<uint8_t> image;
    std::string fragment;
  };
  std::vector<Case> cases;
  for (const uint32_t kind : {99u, 9u, 13u, 7u}) {
    Sections sections = SplitSections(image);
    sections.emplace_back(kind, std::vector<uint8_t>(16, 0));
    cases.push_back(
        {Assemble(sections), "lists kind " + std::to_string(kind) + ", which"});
  }
  {
    std::vector<uint8_t> reserved = image;
    ArtifactSectionEntry first;
    std::memcpy(&first, reserved.data() + sizeof(ArtifactHeader),
                sizeof(first));
    first.reserved = 7;
    std::memcpy(reserved.data() + sizeof(ArtifactHeader), &first,
                sizeof(first));
    Reseal(&reserved);
    cases.push_back(
        {reserved, "section Meta: reserved table word is 7, not zero"});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.fragment);
    const std::string message = LoadError(c.image);
    EXPECT_NE(message.find(c.fragment), std::string::npos) << message;
    WriteBytes(dir + "/a.itspq", c.image);
    ExpectRegistrationRejected(dir + "/a.itspq", StatusCode::kInvalidArgument,
                               c.fragment);
  }
}

// The codec is canonical: a decoded venue re-encodes (same label) to
// exactly the bytes it was decoded from.
TEST(ArtifactTest, ReencodingADecodedVenueIsByteIdentical) {
  ArtifactWriteOptions options;
  options.label = "canonical";
  const std::vector<uint8_t> first = ValueOrDie(
      EncodeVenueArtifact(MakeSmallVenue(), options), "EncodeVenueArtifact");
  const LoadedVenueWorld world = ValueOrDie(
      DecodeVenueArtifact(first.data(), first.size()), "DecodeVenueArtifact");
  ASSERT_EQ(world.label, options.label);
  const std::vector<uint8_t> second = ValueOrDie(
      EncodeVenueArtifact(*world.venue, options), "EncodeVenueArtifact");
  EXPECT_EQ(first, second);
}

// No edge weight is stored: a loaded world compiles its adjacency from
// the decoded door lists and positions, and it equals the adjacency of
// the venue the artifact was written from, weight extremes included.
TEST(ArtifactTest, LoadedWorldCompilesTheSameAdjacency) {
  const std::string dir = TestDir("adjacency");
  const Venue venue = MakeSmallVenue();
  ASSERT_TRUE(WriteVenueArtifact(dir + "/a.itspq", venue).ok());
  auto published = BuildWorldFromArtifact(
      ValueOrDie(LoadVenueArtifact(dir + "/a.itspq"), "LoadVenueArtifact"),
      "itg-s");
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  const CsrAdjacency& loaded = (*published)->graph().adjacency();
  const CsrAdjacency fresh = CsrAdjacency::Compile(venue);
  // The positions align with the door lists, so those must match too.
  const Venue& loaded_venue = (*published)->venue();
  ASSERT_EQ(loaded_venue.NumPartitions(), venue.NumPartitions());
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const auto partition = static_cast<PartitionId>(p);
    EXPECT_TRUE(loaded_venue.DoorsOf(partition) == venue.DoorsOf(partition))
        << "partition " << p;
    EXPECT_EQ(loaded_venue.DoorListOffset(partition),
              venue.DoorListOffset(partition))
        << "partition " << p;
  }
  ASSERT_EQ(loaded.door_positions.size(), fresh.door_positions.size());
  for (size_t k = 0; k < fresh.door_positions.size(); ++k) {
    EXPECT_EQ(loaded.door_positions[k].x, fresh.door_positions[k].x) << k;
    EXPECT_EQ(loaded.door_positions[k].y, fresh.door_positions[k].y) << k;
  }
  EXPECT_EQ(loaded.min_edge_weight, fresh.min_edge_weight);
  EXPECT_EQ(loaded.max_edge_weight, fresh.max_edge_weight);
  EXPECT_TRUE(loaded.BucketEligible());
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

// The bit patterns of an ATI row's bounds, so that equality is bitwise.
std::vector<uint64_t> Bits(Span<double> bounds) {
  std::vector<uint64_t> bits;
  for (const double x : bounds) {
    uint64_t b;
    std::memcpy(&b, &x, sizeof(b));
    bits.push_back(b);
  }
  return bits;
}

// The boundary ledger of a loaded world equals the probe reference
// (CheckpointSet::FromGraph + BoundaryFlipIndex::Build) on a seeded
// fleet, midnight-wrap schedules included, and the ATI rows a loaded
// world compiles are bitwise those of ItGraph::Build on the source.
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
    const auto world = ValueOrDie(
        BuildWorldFromArtifact(
            ValueOrDie(DecodeVenueArtifact(image.data(), image.size()),
                       "DecodeVenueArtifact"),
            "itg-s"),
        "BuildWorld");
    const ItGraph graph =
        ValueOrDie(ItGraph::Build(fleet[v]), "ItGraph::Build");
    const CheckpointSet probe_cps = CheckpointSet::FromGraph(graph);
    EXPECT_EQ(world->checkpoints().times(), probe_cps.times())
        << "venue " << v;

    const BoundaryFlipIndex probe = BoundaryFlipIndex::Build(graph, probe_cps);
    ASSERT_GT(probe.NumBoundaries(), 0u) << "venue " << v;
    ASSERT_EQ(world->flip_index().size(), probe.NumBoundaries())
        << "venue " << v;
    for (size_t b = 0; b < probe.NumBoundaries(); ++b) {
      const std::vector<DoorId> from_probe(probe.FlipsBegin(b),
                                           probe.FlipsEnd(b));
      EXPECT_EQ(world->flip_index()[b], from_probe)
          << "venue " << v << " boundary " << b;
    }

    ASSERT_EQ(world->graph().NumDoors(), graph.NumDoors()) << "venue " << v;
    for (size_t d = 0; d < graph.NumDoors(); ++d) {
      const AtiRow want = graph.Ati(static_cast<DoorId>(d));
      const AtiRow got = world->graph().Ati(static_cast<DoorId>(d));
      EXPECT_EQ(Bits(got.starts()), Bits(want.starts()))
          << "venue " << v << " door " << d;
      EXPECT_EQ(Bits(got.ends()), Bits(want.ends()))
          << "venue " << v << " door " << d;
    }
  }
}

// The metadata round-trips: the label, and the manifest loader's
// relative-path resolution.
TEST(ArtifactTest, LabelAndManifestRoundTrip) {
  const std::string dir = TestDir("meta");
  Venue venue = MakeSmallVenue();
  ArtifactWriteOptions options;
  options.label = "flagship";
  ASSERT_TRUE(WriteVenueArtifact(dir + "/a.itspq", venue, options).ok());

  LoadedVenueWorld world =
      ValueOrDie(LoadVenueArtifact(dir + "/a.itspq"), "LoadVenueArtifact");
  EXPECT_EQ(world.label, "flagship");

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
// case: wrapped intervals are split at 0/86400 during compilation, which
// a load repeats on the stored source intervals).
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
