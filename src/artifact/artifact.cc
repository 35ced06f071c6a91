#include "artifact/artifact.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "artifact/format.h"
#include "common/time.h"
#include "itgraph/checkpoints.h"
#include "itgraph/d2d_index.h"
#include "itgraph/itgraph.h"
#include "update/versioned_graph.h"

namespace itspq {
namespace {

const char* SectionName(uint32_t kind) {
  switch (static_cast<ArtifactSection>(kind)) {
    case ArtifactSection::kMeta:
      return "Meta";
    case ArtifactSection::kPartitions:
      return "Partitions";
    case ArtifactSection::kDoors:
      return "Doors";
    case ArtifactSection::kDoorAtis:
      return "DoorAtis";
    case ArtifactSection::kDoorsOf:
      return "DoorsOf";
    case ArtifactSection::kDistanceMatrices:
      return "DistanceMatrices";
    case ArtifactSection::kFloorIndex:
      return "FloorIndex";
    case ArtifactSection::kCompiledAtis:
      return "CompiledAtis";
    case ArtifactSection::kCheckpoints:
      return "Checkpoints";
    case ArtifactSection::kFlipIndex:
      return "FlipIndex";
    case ArtifactSection::kD2d:
      return "D2d";
    case ArtifactSection::kAdjacencyCsr:
      return "AdjacencyCsr";
  }
  return "?";
}

/// Little-endian append-only buffer for one section payload.
struct ByteWriter {
  std::vector<uint8_t> out;

  void Raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    out.insert(out.end(), b, b + n);
  }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  template <typename T>
  void Pod(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(v.data(), v.size() * sizeof(T));
  }
};

/// Bounds-checked cursor over one section payload. Every read either
/// succeeds or trips the fail flag; nothing ever reads past `size_`.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool Raw(void* p, size_t n) {
    if (n > size_ - pos_) {
      failed_ = true;
      return false;
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I32(int32_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }

  /// Reads `count` trivially-copyable elements, guarding the resize
  /// against hostile counts (never allocates more than remains).
  template <typename T>
  bool Pod(std::vector<T>* v, uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > Remaining() / sizeof(T)) {
      failed_ = true;
      return false;
    }
    v->resize(static_cast<size_t>(count));
    return Raw(v->data(), v->size() * sizeof(T));
  }

  size_t Remaining() const { return size_ - pos_; }
  bool failed() const { return failed_; }
  bool Exhausted() const { return !failed_ && pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

Status CorruptSection(uint32_t kind, const std::string& what) {
  return InvalidArgumentError(std::string("artifact section ") +
                              SectionName(kind) + ": " + what);
}

constexpr uint64_t kFlagHasD2d = 1;

struct MetaSection {
  uint64_t num_partitions = 0;
  uint64_t num_doors = 0;
  uint64_t flags = 0;
  std::string label;
};

}  // namespace

/// Befriended by Venue, DistanceMatrix, AtiSet, ItGraph, and
/// VersionedGraph: encodes their private representations verbatim and
/// re-adopts them at load time without recompiling anything.
class ArtifactCodec {
 public:
  static StatusOr<std::vector<uint8_t>> Encode(
      const Venue& venue, const ArtifactWriteOptions& options);
  static StatusOr<LoadedVenueWorld> Decode(const uint8_t* data, size_t size);
  static StatusOr<std::shared_ptr<const VersionedGraph>> BuildWorld(
      LoadedVenueWorld world, TvCheck check,
      const RouterBuildOptions& options);

 private:
  // --- encode helpers (one per section) ---
  static void EncodeMeta(const Venue& v, const ArtifactWriteOptions& o,
                         ByteWriter& w);
  static void EncodePartitions(const Venue& v, ByteWriter& w);
  static void EncodeDoors(const Venue& v, ByteWriter& w);
  static void EncodeDoorAtis(const Venue& v, ByteWriter& w);
  static void EncodeDoorsOf(const Venue& v, ByteWriter& w);
  static void EncodeDistanceMatrices(const Venue& v, ByteWriter& w);
  static void EncodeFloorIndex(const Venue& v, ByteWriter& w);
  static void EncodeCompiledAtis(const ItGraph& g, ByteWriter& w);
  static void EncodeAdjacencyCsr(const ItGraph& g, ByteWriter& w);

  // --- decode helpers ---
  static Status ParseMeta(ByteReader& r, MetaSection* meta);
  static Status ParseVenue(const MetaSection& meta,
                           const std::map<uint32_t, ByteReader>& sections,
                           Venue* venue);
  static Status ParseCompiledAtis(ByteReader& r, size_t num_doors,
                                  std::vector<AtiSet>* atis);
  static Status ParseAdjacencyCsr(ByteReader& r, const Venue& venue,
                                  std::shared_ptr<const CsrAdjacency>* adj);
};

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

void ArtifactCodec::EncodeMeta(const Venue& v, const ArtifactWriteOptions& o,
                               ByteWriter& w) {
  w.U64(v.partitions_.size());
  w.U64(v.doors_.size());
  w.U64(o.include_d2d ? kFlagHasD2d : 0);
  w.U64(o.label.size());
  w.Raw(o.label.data(), o.label.size());
}

void ArtifactCodec::EncodePartitions(const Venue& v, ByteWriter& w) {
  for (const Partition& p : v.partitions_) {
    w.F64(p.rect.min_x);
    w.F64(p.rect.min_y);
    w.F64(p.rect.max_x);
    w.F64(p.rect.max_y);
    w.I32(p.floor);
    w.U32(0);  // pad to 8-byte record multiple
  }
}

void ArtifactCodec::EncodeDoors(const Venue& v, ByteWriter& w) {
  for (const Door& d : v.doors_) {
    w.F64(d.pos.x);
    w.F64(d.pos.y);
    w.I32(d.floor);
    w.I32(d.partitions[0]);
    w.I32(d.partitions[1]);
    w.U32(0);
  }
}

void ArtifactCodec::EncodeDoorAtis(const Venue& v, ByteWriter& w) {
  // The SOURCE intervals (pre-normalisation) ride along so a loaded
  // venue behaves identically under Builder::FromVenue / SetDoorAti —
  // the online-update path re-derives from these, not from AtiSets.
  uint64_t total = 0;
  w.U64(v.doors_.size() + 1);
  w.U64(0);
  for (const Door& d : v.doors_) {
    total += d.ati_intervals.size();
    w.U64(total);
  }
  for (const Door& d : v.doors_) {
    for (const TimeInterval& ti : d.ati_intervals) {
      w.F64(ti.start);
      w.F64(ti.end);
    }
  }
}

void ArtifactCodec::EncodeDoorsOf(const Venue& v, ByteWriter& w) {
  uint64_t total = 0;
  w.U64(0);
  for (const auto& doors : v.doors_of_) {
    total += doors.size();
    w.U64(total);
  }
  for (const auto& doors : v.doors_of_) w.Pod(doors);
}

void ArtifactCodec::EncodeDistanceMatrices(const Venue& v, ByteWriter& w) {
  for (const DistanceMatrix& dm : v.distance_matrices_) {
    w.U64(dm.num_doors_);
    w.I32(dm.base_id_);
    w.U32(static_cast<uint32_t>(dm.local_index_.size()));
  }
  for (const DistanceMatrix& dm : v.distance_matrices_) w.Pod(dm.local_index_);
  for (const DistanceMatrix& dm : v.distance_matrices_) w.Pod(dm.matrix_);
}

void ArtifactCodec::EncodeFloorIndex(const Venue& v, ByteWriter& w) {
  w.I32(v.min_floor_);
  w.U32(static_cast<uint32_t>(v.floor_index_.size()));
  for (const Venue::FloorIndex& fi : v.floor_index_) {
    w.F64(fi.origin_x);
    w.F64(fi.origin_y);
    w.F64(fi.cell);
    w.I32(fi.cols);
    w.I32(fi.rows);
    uint64_t total = 0;
    w.U64(0);
    for (const auto& cell : fi.cells) {
      total += cell.size();
      w.U64(total);
    }
    for (const auto& cell : fi.cells) w.Pod(cell);
  }
}

void ArtifactCodec::EncodeCompiledAtis(const ItGraph& g, ByteWriter& w) {
  uint64_t total = 0;
  w.U64(0);
  for (const AtiSet& a : g.atis_) {
    total += a.starts_.size();
    w.U64(total);
  }
  for (const AtiSet& a : g.atis_) w.Pod(a.starts_);
  for (const AtiSet& a : g.atis_) w.Pod(a.ends_);
}

void ArtifactCodec::EncodeAdjacencyCsr(const ItGraph& g, ByteWriter& w) {
  // The search core's relaxation arrays, verbatim: 2 segments per door
  // (one per partition side), each a contiguous (neighbour id, weight)
  // run. Weight extremes are recomputed at load — cheaper than trusting
  // two floats a corrupt file could use to demote the bucket queue.
  const CsrAdjacency& adj = g.adjacency();
  w.U64(adj.num_doors);
  w.Pod(adj.seg_offsets);
  w.Pod(adj.seg_partition);
  w.Pod(adj.neighbor_ids);
  w.Pod(adj.neighbor_weights);
}

StatusOr<std::vector<uint8_t>> ArtifactCodec::Encode(
    const Venue& venue, const ArtifactWriteOptions& options) {
  // Pay the whole build pipeline once, here: graph compilation
  // (AtiSet normalisation), the checkpoint ledger, and optionally the
  // n^2 Dijkstra sweep for the D2D matrix.
  auto graph = ItGraph::Build(venue);
  if (!graph.ok()) return graph.status();

  std::vector<std::pair<uint32_t, ByteWriter>> sections;
  auto section = [&sections](ArtifactSection kind) -> ByteWriter& {
    sections.emplace_back(static_cast<uint32_t>(kind), ByteWriter{});
    return sections.back().second;
  };

  EncodeMeta(venue, options, section(ArtifactSection::kMeta));
  EncodePartitions(venue, section(ArtifactSection::kPartitions));
  EncodeDoors(venue, section(ArtifactSection::kDoors));
  EncodeDoorAtis(venue, section(ArtifactSection::kDoorAtis));
  EncodeDoorsOf(venue, section(ArtifactSection::kDoorsOf));
  EncodeDistanceMatrices(venue, section(ArtifactSection::kDistanceMatrices));
  EncodeFloorIndex(venue, section(ArtifactSection::kFloorIndex));
  EncodeCompiledAtis(*graph, section(ArtifactSection::kCompiledAtis));
  EncodeAdjacencyCsr(*graph, section(ArtifactSection::kAdjacencyCsr));

  std::vector<double> times;
  std::vector<std::vector<DoorId>> flip_lists;
  BuildBoundaryLedger(*graph, &times, &flip_lists);

  {
    ByteWriter& w = section(ArtifactSection::kCheckpoints);
    w.U64(times.size());
    w.Pod(times);
  }
  {
    ByteWriter& w = section(ArtifactSection::kFlipIndex);
    w.U64(flip_lists.size());
    uint64_t total = 0;
    w.U64(0);
    for (const auto& doors : flip_lists) {
      total += doors.size();
      w.U64(total);
    }
    for (const auto& doors : flip_lists) w.Pod(doors);
  }

  if (options.include_d2d) {
    auto d2d = D2dIndex::Build(*graph);
    if (!d2d.ok()) return d2d.status();
    ByteWriter& w = section(ArtifactSection::kD2d);
    const size_t n = graph->NumDoors();
    w.U64(n);
    for (size_t from = 0; from < n; ++from) {
      for (size_t to = 0; to < n; ++to) {
        w.F64(d2d->DoorDistance(static_cast<DoorId>(from),
                                static_cast<DoorId>(to)));
      }
    }
  }

  // Assemble: header | table | payloads, offsets laid out in order.
  ArtifactHeader header;
  std::memcpy(header.magic, kArtifactMagic, sizeof(header.magic));
  header.format_version = kArtifactFormatVersion;
  header.endian_tag = kArtifactEndianTag;
  header.header_bytes = sizeof(ArtifactHeader);
  header.section_count = static_cast<uint32_t>(sections.size());

  std::vector<ArtifactSectionEntry> table(sections.size());
  uint64_t offset =
      sizeof(ArtifactHeader) + table.size() * sizeof(ArtifactSectionEntry);
  for (size_t i = 0; i < sections.size(); ++i) {
    const std::vector<uint8_t>& payload = sections[i].second.out;
    table[i].kind = sections[i].first;
    table[i].reserved = 0;
    table[i].offset = offset;
    table[i].bytes = payload.size();
    table[i].checksum = ArtifactChecksum(payload.data(), payload.size());
    offset += payload.size();
  }
  header.file_bytes = offset;
  header.table_checksum =
      ArtifactChecksum(table.data(), table.size() * sizeof(table[0]));

  std::vector<uint8_t> image;
  image.reserve(offset);
  const auto* hp = reinterpret_cast<const uint8_t*>(&header);
  image.insert(image.end(), hp, hp + sizeof(header));
  const auto* tp = reinterpret_cast<const uint8_t*>(table.data());
  image.insert(image.end(), tp, tp + table.size() * sizeof(table[0]));
  for (const auto& [kind, w] : sections) {
    image.insert(image.end(), w.out.begin(), w.out.end());
  }
  return image;
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

namespace {

/// Validates the header + section table against `size` actual bytes.
/// On success fills `table` with the verified entries.
Status CheckHeaderAndTable(const uint8_t* data, size_t size,
                           std::vector<ArtifactSectionEntry>* table) {
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

  table->resize(header.section_count);
  std::memcpy(table->data(), table_start, table_bytes);
  const uint64_t payload_start = sizeof(ArtifactHeader) + table_bytes;
  for (const ArtifactSectionEntry& e : *table) {
    if (e.offset < payload_start || e.bytes > size || e.offset > size - e.bytes) {
      return CorruptSection(e.kind, "extends past the end of the file");
    }
  }
  return Status::Ok();
}

/// CSR offsets helper: reads `count + 1` offsets, validates they start
/// at 0 and are non-decreasing. Returns false on malformed input.
bool ReadCsrOffsets(ByteReader& r, size_t count, std::vector<uint64_t>* out) {
  if (!r.Pod(out, count + 1)) return false;
  if ((*out)[0] != 0) return false;
  for (size_t i = 0; i + 1 < out->size(); ++i) {
    if ((*out)[i] > (*out)[i + 1]) return false;
  }
  return true;
}

}  // namespace

Status ArtifactCodec::ParseMeta(ByteReader& r, MetaSection* meta) {
  constexpr uint32_t kKind = static_cast<uint32_t>(ArtifactSection::kMeta);
  uint64_t label_len = 0;
  if (!r.U64(&meta->num_partitions) || !r.U64(&meta->num_doors) ||
      !r.U64(&meta->flags) || !r.U64(&label_len) ||
      label_len > r.Remaining()) {
    return CorruptSection(kKind, "malformed");
  }
  meta->label.resize(static_cast<size_t>(label_len));
  if (!r.Raw(meta->label.data(), meta->label.size()) || !r.Exhausted()) {
    return CorruptSection(kKind, "malformed");
  }
  // The in-memory structures index partitions and doors with int32 ids.
  if (meta->num_partitions > size_t{1} << 30 ||
      meta->num_doors > size_t{1} << 30) {
    return CorruptSection(kKind, "implausible partition/door count");
  }
  return Status::Ok();
}

Status ArtifactCodec::ParseCompiledAtis(ByteReader& r, size_t num_doors,
                                        std::vector<AtiSet>* atis) {
  constexpr uint32_t kKind =
      static_cast<uint32_t>(ArtifactSection::kCompiledAtis);
  std::vector<uint64_t> offsets;
  if (!ReadCsrOffsets(r, num_doors, &offsets)) {
    return CorruptSection(kKind, "malformed interval offsets");
  }
  std::vector<double> starts, ends;
  if (!r.Pod(&starts, offsets[num_doors]) ||
      !r.Pod(&ends, offsets[num_doors]) || !r.Exhausted()) {
    return CorruptSection(kKind, "interval pool truncated");
  }
  atis->resize(num_doors);
  for (size_t d = 0; d < num_doors; ++d) {
    const size_t begin = static_cast<size_t>(offsets[d]);
    const size_t end = static_cast<size_t>(offsets[d + 1]);
    // Adopted verbatim — but verify the normalisation invariant the
    // binary-search lookup relies on (sorted, disjoint, in-range), so a
    // corrupt-but-checksum-colliding file cannot produce silent wrong
    // answers.
    for (size_t i = begin; i < end; ++i) {
      const bool in_range = starts[i] >= 0 && starts[i] < ends[i] &&
                            ends[i] <= kSecondsPerDay;
      const bool disjoint = i + 1 >= end || ends[i] <= starts[i + 1];
      if (!in_range || !disjoint) {
        return CorruptSection(kKind, "door " + std::to_string(d) +
                                         " intervals are not normalised");
      }
    }
    AtiSet& a = (*atis)[d];
    a.starts_.assign(starts.begin() + begin, starts.begin() + end);
    a.ends_.assign(ends.begin() + begin, ends.begin() + end);
  }
  return Status::Ok();
}

Status ArtifactCodec::ParseAdjacencyCsr(
    ByteReader& r, const Venue& venue,
    std::shared_ptr<const CsrAdjacency>* adj) {
  constexpr uint32_t kKind =
      static_cast<uint32_t>(ArtifactSection::kAdjacencyCsr);
  const size_t n = venue.NumDoors();
  auto out = std::make_shared<CsrAdjacency>();
  uint64_t num_doors = 0;
  if (!r.U64(&num_doors) || num_doors != n) {
    return CorruptSection(kKind, "door count does not match the venue");
  }
  out->num_doors = n;
  if (!r.Pod(&out->seg_offsets, 2 * num_doors + 1) ||
      out->seg_offsets[0] != 0) {
    return CorruptSection(kKind, "malformed segment offsets");
  }
  for (size_t s = 0; s + 1 < out->seg_offsets.size(); ++s) {
    if (out->seg_offsets[s] > out->seg_offsets[s + 1]) {
      return CorruptSection(kKind, "segment offsets not non-decreasing");
    }
  }
  const uint64_t edges = out->seg_offsets[2 * n];
  if (!r.Pod(&out->seg_partition, 2 * num_doors) ||
      !r.Pod(&out->neighbor_ids, edges) ||
      !r.Pod(&out->neighbor_weights, edges) || !r.Exhausted()) {
    return CorruptSection(kKind, "edge pool truncated");
  }
  // Adopted verbatim — but verify the invariants the unchecked
  // relaxation loop relies on, so a checksum-colliding corruption can
  // never index out of bounds or poison the frontier with NaN.
  for (size_t d = 0; d < n; ++d) {
    const Door& door = venue.door(static_cast<DoorId>(d));
    for (size_t side = 0; side < 2; ++side) {
      if (out->seg_partition[2 * d + side] != door.partitions[side]) {
        return CorruptSection(
            kKind, "segment partition disagrees with door " +
                       std::to_string(d));
      }
    }
    for (uint32_t k = out->seg_offsets[2 * d]; k < out->seg_offsets[2 * d + 2];
         ++k) {
      const uint32_t id = out->neighbor_ids[k];
      const double weight = out->neighbor_weights[k];
      if (id >= n || id == d || !std::isfinite(weight) || weight < 0) {
        return CorruptSection(kKind, "corrupt edge out of door " +
                                         std::to_string(d));
      }
    }
  }
  out->RecomputeWeightExtremes();
  *adj = std::move(out);
  return Status::Ok();
}

Status ArtifactCodec::ParseVenue(
    const MetaSection& meta, const std::map<uint32_t, ByteReader>& sections,
    Venue* venue) {
  const size_t P = static_cast<size_t>(meta.num_partitions);
  const size_t n = static_cast<size_t>(meta.num_doors);
  auto reader = [&sections](ArtifactSection kind) {
    return sections.at(static_cast<uint32_t>(kind));  // copy: fresh cursor
  };

  {
    constexpr uint32_t kKind =
        static_cast<uint32_t>(ArtifactSection::kPartitions);
    ByteReader r = reader(ArtifactSection::kPartitions);
    venue->partitions_.resize(P);
    for (Partition& p : venue->partitions_) {
      uint32_t pad;
      if (!r.F64(&p.rect.min_x) || !r.F64(&p.rect.min_y) ||
          !r.F64(&p.rect.max_x) || !r.F64(&p.rect.max_y) ||
          !r.I32(&p.floor) || !r.U32(&pad)) {
        return CorruptSection(kKind, "truncated partition record");
      }
    }
    if (!r.Exhausted()) return CorruptSection(kKind, "trailing bytes");
  }

  {
    constexpr uint32_t kKind = static_cast<uint32_t>(ArtifactSection::kDoors);
    ByteReader r = reader(ArtifactSection::kDoors);
    venue->doors_.resize(n);
    for (Door& d : venue->doors_) {
      uint32_t pad;
      if (!r.F64(&d.pos.x) || !r.F64(&d.pos.y) || !r.I32(&d.floor) ||
          !r.I32(&d.partitions[0]) || !r.I32(&d.partitions[1]) ||
          !r.U32(&pad)) {
        return CorruptSection(kKind, "truncated door record");
      }
      for (PartitionId p : d.partitions) {
        if (p < 0 || static_cast<size_t>(p) >= P) {
          return CorruptSection(kKind, "door references unknown partition");
        }
      }
    }
    if (!r.Exhausted()) return CorruptSection(kKind, "trailing bytes");
  }

  {
    constexpr uint32_t kKind =
        static_cast<uint32_t>(ArtifactSection::kDoorAtis);
    ByteReader r = reader(ArtifactSection::kDoorAtis);
    uint64_t offset_count = 0;
    std::vector<uint64_t> offsets;
    if (!r.U64(&offset_count) || offset_count != n + 1 ||
        !ReadCsrOffsets(r, n, &offsets)) {
      return CorruptSection(kKind, "malformed interval offsets");
    }
    std::vector<TimeInterval> pool;
    if (!r.Pod(&pool, offsets[n]) || !r.Exhausted()) {
      return CorruptSection(kKind, "interval pool truncated");
    }
    for (size_t d = 0; d < n; ++d) {
      venue->doors_[d].ati_intervals.assign(
          pool.begin() + static_cast<size_t>(offsets[d]),
          pool.begin() + static_cast<size_t>(offsets[d + 1]));
    }
  }

  {
    constexpr uint32_t kKind = static_cast<uint32_t>(ArtifactSection::kDoorsOf);
    ByteReader r = reader(ArtifactSection::kDoorsOf);
    std::vector<uint64_t> offsets;
    if (!ReadCsrOffsets(r, P, &offsets)) {
      return CorruptSection(kKind, "malformed door-list offsets");
    }
    std::vector<DoorId> pool;
    if (!r.Pod(&pool, offsets[P]) || !r.Exhausted()) {
      return CorruptSection(kKind, "door pool truncated");
    }
    for (DoorId d : pool) {
      if (d < 0 || static_cast<size_t>(d) >= n) {
        return CorruptSection(kKind, "door id out of range");
      }
    }
    venue->doors_of_.resize(P);
    for (size_t p = 0; p < P; ++p) {
      venue->doors_of_[p].assign(
          pool.begin() + static_cast<size_t>(offsets[p]),
          pool.begin() + static_cast<size_t>(offsets[p + 1]));
    }
  }

  {
    constexpr uint32_t kKind =
        static_cast<uint32_t>(ArtifactSection::kDistanceMatrices);
    ByteReader r = reader(ArtifactSection::kDistanceMatrices);
    struct Record {
      uint64_t num_doors;
      int32_t base_id;
      uint32_t li_len;
    };
    std::vector<Record> records(P);
    for (Record& rec : records) {
      if (!r.U64(&rec.num_doors) || !r.I32(&rec.base_id) ||
          !r.U32(&rec.li_len) || rec.num_doors > n) {
        return CorruptSection(kKind, "malformed matrix record");
      }
    }
    venue->distance_matrices_.resize(P);
    for (size_t p = 0; p < P; ++p) {
      DistanceMatrix& dm = venue->distance_matrices_[p];
      dm.num_doors_ = static_cast<size_t>(records[p].num_doors);
      dm.base_id_ = records[p].base_id;
      if (!r.Pod(&dm.local_index_, records[p].li_len)) {
        return CorruptSection(kKind, "local-index pool truncated");
      }
    }
    for (size_t p = 0; p < P; ++p) {
      DistanceMatrix& dm = venue->distance_matrices_[p];
      if (!r.Pod(&dm.matrix_, static_cast<uint64_t>(dm.num_doors_) *
                                  dm.num_doors_)) {
        return CorruptSection(kKind, "matrix pool truncated");
      }
    }
    if (!r.Exhausted()) return CorruptSection(kKind, "trailing bytes");
    // DistanceUnchecked performs no bounds checks at query time, so
    // verify here that every door on a partition's boundary resolves to
    // a valid local index in that partition's matrix.
    for (size_t p = 0; p < P; ++p) {
      const DistanceMatrix& dm = venue->distance_matrices_[p];
      for (DoorId d : venue->doors_of_[p]) {
        const int64_t li = static_cast<int64_t>(d) - dm.base_id_;
        if (li < 0 || static_cast<size_t>(li) >= dm.local_index_.size() ||
            dm.local_index_[static_cast<size_t>(li)] < 0 ||
            static_cast<size_t>(dm.local_index_[static_cast<size_t>(li)]) >=
                dm.num_doors_) {
          return CorruptSection(
              kKind, "partition " + std::to_string(p) +
                         " matrix does not cover its boundary doors");
        }
      }
    }
  }

  {
    constexpr uint32_t kKind =
        static_cast<uint32_t>(ArtifactSection::kFloorIndex);
    ByteReader r = reader(ArtifactSection::kFloorIndex);
    uint32_t num_floors = 0;
    if (!r.I32(&venue->min_floor_) || !r.U32(&num_floors) ||
        num_floors > 4096) {
      return CorruptSection(kKind, "malformed floor header");
    }
    venue->floor_index_.resize(num_floors);
    for (Venue::FloorIndex& fi : venue->floor_index_) {
      if (!r.F64(&fi.origin_x) || !r.F64(&fi.origin_y) || !r.F64(&fi.cell) ||
          !r.I32(&fi.cols) || !r.I32(&fi.rows) || fi.cols < 0 || fi.rows < 0 ||
          fi.cell <= 0) {
        return CorruptSection(kKind, "malformed grid header");
      }
      const uint64_t ncells =
          static_cast<uint64_t>(fi.cols) * static_cast<uint64_t>(fi.rows);
      if (ncells > r.Remaining() / sizeof(uint64_t)) {
        return CorruptSection(kKind, "implausible grid size");
      }
      std::vector<uint64_t> offsets;
      if (!ReadCsrOffsets(r, static_cast<size_t>(ncells), &offsets)) {
        return CorruptSection(kKind, "malformed cell offsets");
      }
      std::vector<PartitionId> pool;
      if (!r.Pod(&pool, offsets[static_cast<size_t>(ncells)])) {
        return CorruptSection(kKind, "cell pool truncated");
      }
      for (PartitionId p : pool) {
        if (p < 0 || static_cast<size_t>(p) >= P) {
          return CorruptSection(kKind, "cell references unknown partition");
        }
      }
      fi.cells.resize(static_cast<size_t>(ncells));
      for (size_t c = 0; c < fi.cells.size(); ++c) {
        fi.cells[c].assign(pool.begin() + static_cast<size_t>(offsets[c]),
                           pool.begin() + static_cast<size_t>(offsets[c + 1]));
      }
    }
    if (!r.Exhausted()) return CorruptSection(kKind, "trailing bytes");
  }

  return Status::Ok();
}

StatusOr<LoadedVenueWorld> ArtifactCodec::Decode(const uint8_t* data,
                                                 size_t size) {
  std::vector<ArtifactSectionEntry> table;
  Status header_ok = CheckHeaderAndTable(data, size, &table);
  if (!header_ok.ok()) return header_ok;

  // Verify every payload checksum before interpreting a single byte.
  std::map<uint32_t, ByteReader> sections;
  for (const ArtifactSectionEntry& e : table) {
    if (ArtifactChecksum(data + e.offset, e.bytes) != e.checksum) {
      return CorruptSection(e.kind, "checksum mismatch (corrupt artifact)");
    }
    if (!sections.emplace(e.kind, ByteReader(data + e.offset, e.bytes))
             .second) {
      return CorruptSection(e.kind, "duplicate section");
    }
  }
  auto require = [&sections](ArtifactSection kind) -> Status {
    if (sections.count(static_cast<uint32_t>(kind)) == 0) {
      return InvalidArgumentError(
          std::string("artifact is missing required section ") +
          SectionName(static_cast<uint32_t>(kind)));
    }
    return Status::Ok();
  };
  for (ArtifactSection kind :
       {ArtifactSection::kMeta, ArtifactSection::kPartitions,
        ArtifactSection::kDoors, ArtifactSection::kDoorAtis,
        ArtifactSection::kDoorsOf, ArtifactSection::kDistanceMatrices,
        ArtifactSection::kFloorIndex, ArtifactSection::kCompiledAtis,
        ArtifactSection::kAdjacencyCsr, ArtifactSection::kCheckpoints,
        ArtifactSection::kFlipIndex}) {
    Status s = require(kind);
    if (!s.ok()) return s;
  }

  MetaSection meta;
  {
    ByteReader r = sections.at(static_cast<uint32_t>(ArtifactSection::kMeta));
    Status s = ParseMeta(r, &meta);
    if (!s.ok()) return s;
  }
  const size_t n = static_cast<size_t>(meta.num_doors);

  LoadedVenueWorld world;
  world.label = meta.label;
  {
    Venue venue;
    Status s = ParseVenue(meta, sections, &venue);
    if (!s.ok()) return s;
    world.venue = std::make_unique<Venue>(std::move(venue));
  }

  {
    ByteReader r =
        sections.at(static_cast<uint32_t>(ArtifactSection::kCompiledAtis));
    Status s = ParseCompiledAtis(r, n, &world.atis);
    if (!s.ok()) return s;
  }

  {
    ByteReader r =
        sections.at(static_cast<uint32_t>(ArtifactSection::kAdjacencyCsr));
    Status s = ParseAdjacencyCsr(r, *world.venue, &world.adjacency);
    if (!s.ok()) return s;
  }

  {
    constexpr uint32_t kKind =
        static_cast<uint32_t>(ArtifactSection::kCheckpoints);
    ByteReader r = sections.at(kKind);
    uint64_t count = 0;
    if (!r.U64(&count) || !r.Pod(&world.checkpoint_times, count) ||
        !r.Exhausted()) {
      return CorruptSection(kKind, "malformed");
    }
    for (size_t i = 0; i < world.checkpoint_times.size(); ++i) {
      const double t = world.checkpoint_times[i];
      const bool ordered = i == 0 || world.checkpoint_times[i - 1] < t;
      if (!(t > 0) || !(t < kSecondsPerDay) || !ordered) {
        return CorruptSection(kKind, "times not strictly increasing in (0, "
                                     "86400)");
      }
    }
  }

  {
    constexpr uint32_t kKind =
        static_cast<uint32_t>(ArtifactSection::kFlipIndex);
    ByteReader r = sections.at(kKind);
    uint64_t boundaries = 0;
    std::vector<uint64_t> offsets;
    if (!r.U64(&boundaries) ||
        boundaries != world.checkpoint_times.size() ||
        !ReadCsrOffsets(r, static_cast<size_t>(boundaries), &offsets)) {
      return CorruptSection(
          kKind, "boundary count does not match the checkpoint set");
    }
    std::vector<DoorId> pool;
    if (!r.Pod(&pool, offsets[static_cast<size_t>(boundaries)]) ||
        !r.Exhausted()) {
      return CorruptSection(kKind, "flip pool truncated");
    }
    world.flip_lists.resize(static_cast<size_t>(boundaries));
    for (size_t b = 0; b < world.flip_lists.size(); ++b) {
      const size_t begin = static_cast<size_t>(offsets[b]);
      const size_t end = static_cast<size_t>(offsets[b + 1]);
      if (begin == end) {
        return CorruptSection(kKind, "empty flip list for a checkpoint");
      }
      for (size_t i = begin; i < end; ++i) {
        const bool in_range = pool[i] >= 0 && static_cast<size_t>(pool[i]) < n;
        const bool ascending = i == begin || pool[i - 1] < pool[i];
        if (!in_range || !ascending) {
          return CorruptSection(kKind, "flip list corrupt at boundary " +
                                           std::to_string(b));
        }
      }
      world.flip_lists[b].assign(pool.begin() + begin, pool.begin() + end);
    }
  }

  const uint32_t d2d_kind = static_cast<uint32_t>(ArtifactSection::kD2d);
  if ((meta.flags & kFlagHasD2d) != 0) {
    if (sections.count(d2d_kind) == 0) {
      return InvalidArgumentError(
          "artifact flags declare a D2d section but none is present");
    }
    ByteReader r = sections.at(d2d_kind);
    uint64_t d2d_doors = 0;
    if (!r.U64(&d2d_doors) || d2d_doors != n ||
        !r.Pod(&world.d2d_matrix, d2d_doors * d2d_doors) || !r.Exhausted()) {
      return CorruptSection(d2d_kind, "malformed");
    }
  } else if (sections.count(d2d_kind) != 0) {
    return CorruptSection(d2d_kind, "present but not declared in Meta flags");
  }

  return world;
}

// ---------------------------------------------------------------------------
// World assembly
// ---------------------------------------------------------------------------

StatusOr<std::shared_ptr<const VersionedGraph>> ArtifactCodec::BuildWorld(
    LoadedVenueWorld world, TvCheck check, const RouterBuildOptions& options) {
  if (world.venue == nullptr) {
    return InvalidArgumentError("BuildWorldFromArtifact: world has no venue");
  }
  if (world.atis.size() != world.venue->NumDoors()) {
    return InvalidArgumentError(
        "BuildWorldFromArtifact: compiled AtiSet count does not match the "
        "venue's doors");
  }

  std::shared_ptr<VersionedGraph> version(new VersionedGraph());
  version->check_ = check;
  version->options_ = options;
  version->options_.warm_start = nullptr;
  version->venue_ = std::move(world.venue);

  // Adopt the compiled graph verbatim — the decode path already
  // verified the normalisation invariant, so no AtiSet::Create here.
  // The adjacency rides along from a v2 artifact; a hand-assembled
  // world without one pays the compile here instead.
  ItGraph graph(*version->venue_);
  graph.atis_ = std::move(world.atis);
  if (world.adjacency != nullptr &&
      world.adjacency->num_doors == version->venue_->NumDoors()) {
    graph.adj_ = std::move(world.adjacency);
  } else {
    graph.adj_ = std::make_shared<const CsrAdjacency>(
        CsrAdjacency::Compile(*version->venue_));
  }
  graph.CompileAtiRows();
  version->graph_ = std::make_unique<ItGraph>(std::move(graph));

  version->boundary_times_ = std::move(world.checkpoint_times);
  version->boundary_doors_ = std::move(world.flip_lists);

  Status status = version->FinishBuild(/*carry_from=*/nullptr, {}, {});
  if (!status.ok()) return status;
  return std::shared_ptr<const VersionedGraph>(std::move(version));
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
  std::vector<ArtifactSectionEntry> table;
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
  return ArtifactCodec::BuildWorld(std::move(world), check, options);
}

}  // namespace itspq
