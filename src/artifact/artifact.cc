#include "artifact/artifact.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "artifact/format.h"
#include "common/byte_codec.h"
#include "itgraph/itgraph.h"
#include "update/versioned_graph.h"

namespace itspq {
namespace {

Status CorruptSection(const char* section, const std::string& what) {
  return InvalidArgumentError(std::string("artifact section ") + section +
                              ": " + what);
}

/// Meta, Partitions, Doors and DoorAtis.
constexpr size_t kNumSections = 4;

// Fixed-size records, laid out exactly as on disk. A reader decodes the
// partition and door records straight into Partition and Door, which
// share their layout; the writer zeroes the padding.
struct MetaRecord {  // followed by the label bytes
  uint64_t num_partitions;
  uint64_t num_doors;
  uint64_t label_bytes;
};
struct PartitionRecord {
  double min_x, min_y, max_x, max_y;
  int32_t floor;
  uint32_t pad;
};
struct DoorRecord {
  double x, y;
  int32_t floor;
  int32_t partitions[2];
  uint32_t pad;
};
static_assert(sizeof(MetaRecord) == 24 && sizeof(PartitionRecord) == 40 &&
                  sizeof(DoorRecord) == 32,
              "artifact record layout is fixed");
static_assert(
    sizeof(Partition) == sizeof(PartitionRecord) &&
        offsetof(Partition, floor) == offsetof(PartitionRecord, floor) &&
        sizeof(Door) == sizeof(DoorRecord) &&
        offsetof(Door, floor) == offsetof(DoorRecord, floor) &&
        offsetof(Door, partitions) == offsetof(DoorRecord, partitions),
    "partitions and doors decode in place");

}  // namespace

/// Befriended by Venue: encodes the venue's private representation
/// verbatim and decodes straight into it.
class ArtifactCodec {
 public:
  static StatusOr<std::vector<uint8_t>> Encode(
      const Venue& venue, const ArtifactWriteOptions& options);
  static StatusOr<LoadedVenueWorld> Decode(const uint8_t* data, size_t size);

  /// What the section encoders read.
  struct Source {
    const Venue& venue;
    const ArtifactWriteOptions& options;
  };
  /// What the section decoders fill, in table order: each decoder may
  /// rely on every section before it.
  struct Sink {
    MetaRecord meta = {};
    Venue::Geometry geometry;
    Venue venue;  // its intervals; takes the geometry last
    std::string label;
  };
  /// One row of the section table: the section's layout, written and
  /// read. Every section is required. A reader rejects what it read with
  /// kInvalidArgument saying what is wrong; the decode loop names the
  /// section, and says "malformed" instead once a read has failed (a
  /// check after a short read saw no real data).
  struct Section {
    ArtifactSection kind;
    const char* name;
    void (*encode)(const Source&, ByteWriter&);
    Status (*decode)(ByteReader&, Sink&);
  };
  static const Section kSections[kNumSections];
};

// The section table, in the order the writer emits it. Each decoder
// holds only its section's semantic invariants: the table check refuses
// missing, duplicate and undefined sections, and the decode loop
// trailing bytes, once for every row.
const ArtifactCodec::Section ArtifactCodec::kSections[kNumSections] = {
    {ArtifactSection::kMeta, "Meta",
     [](const Source& s, ByteWriter& w) {
       const std::string& label = s.options.label;
       w.Put(MetaRecord{s.venue.NumPartitions(), s.venue.NumDoors(),
                        label.size()});
       w.Raw(label.data(), label.size());
     },
     [](ByteReader& r, Sink& k) {
       std::vector<char> label;
       if (!r.Get(&k.meta) || !r.Pod(&label, k.meta.label_bytes)) {
         return InvalidArgumentError("malformed");
       }
       k.label.assign(label.begin(), label.end());
       // The in-memory structures index partitions and doors with int32
       // ids.
       if (k.meta.num_partitions > uint64_t{1} << 30 ||
           k.meta.num_doors > uint64_t{1} << 30) {
         return InvalidArgumentError("implausible partition/door count");
       }
       return Status::Ok();
     }},
    {ArtifactSection::kPartitions, "Partitions",
     [](const Source& s, ByteWriter& w) {
       for (const Partition& p : s.venue.geometry_->partitions) {
         w.Put(PartitionRecord{p.rect.min_x, p.rect.min_y, p.rect.max_x,
                               p.rect.max_y, p.floor, 0});
       }
     },
     [](ByteReader& r, Sink& k) {
       if (!r.Pod(&k.geometry.partitions, k.meta.num_partitions)) {
         return InvalidArgumentError("malformed");
       }
       // Checked and indexed as Venue::Builder checks and indexes them.
       Status valid = k.geometry.CheckPartitions();
       if (valid.ok()) k.geometry.BuildLocationIndex();
       return valid;
     }},
    {ArtifactSection::kDoors, "Doors",
     [](const Source& s, ByteWriter& w) {
       for (const Door& d : s.venue.geometry_->doors) {
         w.Put(DoorRecord{d.pos.x, d.pos.y, d.floor,
                          {d.partitions[0], d.partitions[1]}, 0});
       }
     },
     [](ByteReader& r, Sink& k) {
       if (!r.Pod(&k.geometry.doors, k.meta.num_doors)) {
         return InvalidArgumentError("malformed");
       }
       // Checked and listed as Venue::Builder checks and lists them.
       Status valid = k.geometry.CheckDoors();
       if (valid.ok()) k.geometry.BuildDoorLists();
       return valid;
     }},
    {ArtifactSection::kDoorAtis, "DoorAtis",
     // The source intervals: the loader normalises them into the ATI
     // rows, and the update path re-derives a door's row from them.
     // BuildWorldFromArtifact checks each one as it normalises it.
     [](const Source& s, ByteWriter& w) {
       w.Csr(s.venue.ati_offsets_, s.venue.ati_intervals_);
     },
     [](ByteReader& r, Sink& k) {
       if (!r.Csr(k.meta.num_doors, &k.venue.ati_offsets_,
                  &k.venue.ati_intervals_)) {
         return InvalidArgumentError("malformed interval offsets");
       }
       return Status::Ok();
     }},
};

namespace {

/// The kSections row of a table entry's kind, or kNumSections for a
/// kind the format does not define: never written, or retired.
size_t SectionIndex(uint32_t kind) {
  size_t i = 0;
  while (i < kNumSections &&
         static_cast<uint32_t>(ArtifactCodec::kSections[i].kind) != kind) {
    ++i;
  }
  return i;
}

}  // namespace

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

StatusOr<std::vector<uint8_t>> ArtifactCodec::Encode(
    const Venue& venue, const ArtifactWriteOptions& options) {
  // A venue whose ATIs fail to compile would fail every load.
  auto graph = ItGraph::Build(venue);
  if (!graph.ok()) return graph.status();
  const Source source{venue, options};

  std::vector<ArtifactSectionEntry> table;
  std::vector<ByteWriter> payloads;
  for (const Section& s : kSections) {
    ByteWriter& w = payloads.emplace_back();
    s.encode(source, w);
    table.push_back({static_cast<uint32_t>(s.kind), 0, 0, w.size(),
                     ArtifactChecksum(w.data(), w.size())});
  }

  // Assemble: header | table | payloads, offsets laid out in order.
  uint64_t offset =
      sizeof(ArtifactHeader) + table.size() * sizeof(ArtifactSectionEntry);
  for (ArtifactSectionEntry& e : table) {
    e.offset = offset;
    offset += e.bytes;
  }
  ArtifactHeader header;
  std::memcpy(header.magic, kArtifactMagic, sizeof(header.magic));
  header.format_version = kArtifactFormatVersion;
  header.endian_tag = kArtifactEndianTag;
  header.file_bytes = offset;
  header.header_bytes = sizeof(ArtifactHeader);
  header.section_count = static_cast<uint32_t>(table.size());
  header.table_checksum =
      ArtifactChecksum(table.data(), table.size() * sizeof(table[0]));

  ByteWriter image(offset);
  image.Put(header);
  image.Pod(table);
  for (const ByteWriter& w : payloads) image.Raw(w.data(), w.size());
  return std::vector<uint8_t>(image.data(), image.data() + image.size());
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

namespace {

/// One verified table entry per kSections row, in row order.
using SectionTable = std::array<ArtifactSectionEntry, kNumSections>;

/// Validates the header + section table against `size` actual bytes: the
/// table lists each section the format defines exactly once, and nothing
/// else. On success fills `table` with the verified entries.
Status CheckHeaderAndTable(const uint8_t* data, size_t size,
                           SectionTable* table) {
  if (size < sizeof(ArtifactHeader)) {
    return InvalidArgumentError(
        "artifact truncated: " + std::to_string(size) +
        " bytes is smaller than the " +
        std::to_string(sizeof(ArtifactHeader)) + "-byte header");
  }
  ArtifactHeader header;
  std::memcpy(&header, data, sizeof(header));

  if (std::memcmp(header.magic, kArtifactMagic, sizeof(header.magic)) != 0) {
    return InvalidArgumentError("not an ITSPQ artifact (bad magic)");
  }
  if (header.endian_tag != kArtifactEndianTag) {
    return FailedPreconditionError(
        "artifact written with foreign byte order (endian tag mismatch)");
  }
  if (header.format_version != kArtifactFormatVersion) {
    if (header.format_version > kArtifactFormatVersion) {
      return FailedPreconditionError(
          "artifact format version " + std::to_string(header.format_version) +
          " is newer than this build supports (" +
          std::to_string(kArtifactFormatVersion) + "); rebuild the artifact");
    }
    return FailedPreconditionError(
        "unsupported artifact format version " +
        std::to_string(header.format_version) + " (supported: " +
        std::to_string(kArtifactFormatVersion) + ")");
  }
  if (header.header_bytes != sizeof(ArtifactHeader)) {
    return InvalidArgumentError("artifact header size field is corrupt");
  }
  if (header.file_bytes > size) {
    return InvalidArgumentError(
        "artifact truncated: header declares " +
        std::to_string(header.file_bytes) + " bytes but only " +
        std::to_string(size) + " are present");
  }
  if (header.file_bytes < size) {
    return InvalidArgumentError(
        "artifact has " + std::to_string(size - header.file_bytes) +
        " trailing bytes past the declared end");
  }

  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) *
      sizeof(ArtifactSectionEntry);
  if (table_bytes > size - sizeof(ArtifactHeader)) {
    return InvalidArgumentError("artifact truncated inside the section table");
  }
  const uint8_t* table_start = data + sizeof(ArtifactHeader);
  if (ArtifactChecksum(table_start, table_bytes) != header.table_checksum) {
    return InvalidArgumentError(
        "artifact section table checksum mismatch (corrupt file)");
  }

  const uint64_t payload_start = sizeof(ArtifactHeader) + table_bytes;
  bool listed[kNumSections] = {};
  for (uint32_t i = 0; i < header.section_count; ++i) {
    ArtifactSectionEntry e;
    std::memcpy(&e, table_start + i * sizeof(e), sizeof(e));
    const size_t row = SectionIndex(e.kind);
    if (row == kNumSections) {
      return InvalidArgumentError(
          "artifact section table lists kind " + std::to_string(e.kind) +
          ", which format version " + std::to_string(kArtifactFormatVersion) +
          " does not define");
    }
    const char* name = ArtifactCodec::kSections[row].name;
    if (e.reserved != 0) {
      return CorruptSection(name, "reserved table word is " +
                                      std::to_string(e.reserved) +
                                      ", not zero");
    }
    if (listed[row]) return CorruptSection(name, "duplicate section");
    if (e.offset < payload_start || e.bytes > size ||
        e.offset > size - e.bytes) {
      return CorruptSection(name, "extends past the end of the file");
    }
    listed[row] = true;
    (*table)[row] = e;
  }
  for (size_t row = 0; row < kNumSections; ++row) {
    if (!listed[row]) {
      return InvalidArgumentError(
          std::string("artifact is missing required section ") +
          ArtifactCodec::kSections[row].name);
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<LoadedVenueWorld> ArtifactCodec::Decode(const uint8_t* data,
                                                 size_t size) {
  SectionTable table;
  Status header_ok = CheckHeaderAndTable(data, size, &table);
  if (!header_ok.ok()) return header_ok;

  // Verify every payload checksum before interpreting a single byte.
  for (size_t row = 0; row < kNumSections; ++row) {
    const ArtifactSectionEntry& e = table[row];
    if (ArtifactChecksum(data + e.offset, e.bytes) != e.checksum) {
      return CorruptSection(kSections[row].name,
                            "checksum mismatch (corrupt artifact)");
    }
  }

  Sink sink;
  for (size_t row = 0; row < kNumSections; ++row) {
    const ArtifactSectionEntry& e = table[row];
    ByteReader r(data + e.offset, e.bytes);
    Status status = kSections[row].decode(r, sink);
    if (status.ok() && (r.failed() || r.Remaining() != 0)) {
      status = InvalidArgumentError("trailing bytes");
    }
    if (!status.ok()) {
      return CorruptSection(kSections[row].name,
                            r.failed() ? "malformed" : status.message());
    }
  }
  LoadedVenueWorld world;
  sink.venue.geometry_ =
      std::make_shared<const Venue::Geometry>(std::move(sink.geometry));
  world.venue = std::make_unique<Venue>(std::move(sink.venue));
  world.label = std::move(sink.label);
  return world;
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

StatusOr<std::vector<uint8_t>> EncodeVenueArtifact(
    const Venue& venue, const ArtifactWriteOptions& options) {
  return ArtifactCodec::Encode(venue, options);
}

Status WriteVenueArtifact(const std::string& path, const Venue& venue,
                          const ArtifactWriteOptions& options) {
  auto image = ArtifactCodec::Encode(venue, options);
  if (!image.ok()) return image.status();

  // Write to a sibling temp file, then rename over the target, so a
  // crashed writer never leaves a half-written artifact at `path`.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return InternalError("cannot open " + tmp + " for writing");
    }
    out.write(reinterpret_cast<const char*>(image->data()),
              static_cast<std::streamsize>(image->size()));
    if (!out) {
      return InternalError("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return InternalError("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

StatusOr<LoadedVenueWorld> DecodeVenueArtifact(const uint8_t* data,
                                               size_t size) {
  return ArtifactCodec::Decode(data, size);
}

namespace {

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return NotFoundError("cannot open artifact " + path);
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  out->resize(static_cast<size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(out->data()), size)) {
    return InternalError("short read from " + path);
  }
  return Status::Ok();
}

Status Annotate(const Status& status, const std::string& path) {
  if (status.ok()) return status;
  return Status(status.code(), path + ": " + status.message());
}

}  // namespace

StatusOr<LoadedVenueWorld> LoadVenueArtifact(const std::string& path) {
  std::vector<uint8_t> bytes;
  Status read = ReadFileBytes(path, &bytes);
  if (!read.ok()) return read;
  auto world = ArtifactCodec::Decode(bytes.data(), bytes.size());
  if (!world.ok()) return Annotate(world.status(), path);
  return world;
}

Status ValidateArtifactHeader(const std::string& path) {
  // Registration-time gate: reads only the header plus section table —
  // payload bytes stay on disk, so registering a whole fleet of shards
  // costs a few hundred bytes of I/O each, not the full file.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return NotFoundError("cannot open artifact " + path);
  }
  const size_t file_bytes = static_cast<size_t>(in.tellg());
  in.seekg(0);

  std::vector<uint8_t> prefix(std::min(file_bytes, sizeof(ArtifactHeader)));
  if (!prefix.empty() &&
      !in.read(reinterpret_cast<char*>(prefix.data()), prefix.size())) {
    return InternalError("short read from " + path);
  }
  if (prefix.size() == sizeof(ArtifactHeader)) {
    // The header is intact enough to size the table; pull it in too.
    // A bogus section_count is clamped to the file — CheckHeaderAndTable
    // rejects "truncated inside the section table" before touching it.
    ArtifactHeader header;
    std::memcpy(&header, prefix.data(), sizeof(header));
    const uint64_t table_bytes =
        static_cast<uint64_t>(header.section_count) *
        sizeof(ArtifactSectionEntry);
    const size_t want = sizeof(ArtifactHeader) +
                        static_cast<size_t>(std::min<uint64_t>(
                            table_bytes, file_bytes - sizeof(ArtifactHeader)));
    prefix.resize(want);
    if (want > sizeof(ArtifactHeader) &&
        !in.read(reinterpret_cast<char*>(prefix.data() + sizeof(header)),
                 want - sizeof(header))) {
      return InternalError("short read from " + path);
    }
  }
  SectionTable table;
  return Annotate(CheckHeaderAndTable(prefix.data(), file_bytes, &table),
                  path);
}

StatusOr<std::vector<std::string>> ReadFleetManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open manifest " + path);
  }
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string() : path.substr(0, slash + 1);

  std::vector<std::string> artifacts;
  std::string line;
  while (std::getline(in, line)) {
    const size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') continue;
    const size_t end = line.find_last_not_of(" \t\r");
    std::string entry = line.substr(begin, end - begin + 1);
    if (entry[0] != '/') entry = dir + entry;
    artifacts.push_back(std::move(entry));
  }
  if (artifacts.empty()) {
    return InvalidArgumentError("manifest " + path + " lists no artifacts");
  }
  return artifacts;
}

StatusOr<std::shared_ptr<const VersionedGraph>> BuildWorldFromArtifact(
    LoadedVenueWorld world, TvCheck check, const RouterBuildOptions& options) {
  if (world.venue == nullptr) {
    return InvalidArgumentError("BuildWorldFromArtifact: world has no venue");
  }
  // The decoder checked the geometry: only a stored interval can fail.
  auto version = VersionedGraph::Build(std::move(*world.venue), check, options);
  if (!version.ok()) {
    return CorruptSection("DoorAtis", version.status().message());
  }
  return version;
}

}  // namespace itspq
