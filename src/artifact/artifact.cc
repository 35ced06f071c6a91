#include "artifact/artifact.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <utility>

#include "artifact/format.h"
#include "common/time.h"
#include "itgraph/checkpoints.h"
#include "itgraph/itgraph.h"
#include "update/versioned_graph.h"

namespace itspq {
namespace {

Status CorruptSection(const char* section, const std::string& what) {
  return InvalidArgumentError(std::string("artifact section ") + section +
                              ": " + what);
}

/// Per-element hooks for the CSR codecs below.
constexpr auto kAny = [](const auto&) { return true; };
/// Accepts ids in [0, bound): partition and door references.
auto Below(uint64_t bound) {
  return [bound](int32_t id) {
    return id >= 0 && static_cast<uint64_t>(id) < bound;
  };
}

/// Little-endian append-only buffer for one section payload.
struct ByteWriter {
  std::vector<uint8_t> out;

  void Raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    out.insert(out.end(), b, b + n);
  }
  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(&v, sizeof(v));
  }
  template <typename T>
  void Pod(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(v.data(), v.size() * sizeof(T));
  }
  /// One CSR block: the offsets, widened to u64, then the pool.
  template <typename Offset, typename T>
  void Csr(const std::vector<Offset>& offsets, const std::vector<T>& pool) {
    for (Offset o : offsets) Put(uint64_t{o});
    Pod(pool);
  }
};

/// Bounds-checked cursor over one section payload. Every read either
/// succeeds or trips the fail flag; nothing ever reads past `size_`.
class ByteReader {
 public:
  ByteReader(const char* section, const uint8_t* data, size_t size)
      : section_(section), data_(data), size_(size) {}

  bool Raw(void* p, size_t n) {
    if (n > size_ - pos_) return Fail();
    if (n == 0) return true;  // an empty vector's data() may be null
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  template <typename T>
  bool Get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Raw(v, sizeof(*v));
  }

  /// Reads `count` trivially-copyable elements, guarding the resize
  /// against hostile counts (never allocates more than remains).
  template <typename T>
  bool Pod(std::vector<T>* v, uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > (size_ - pos_) / sizeof(T)) return Fail();
    v->resize(static_cast<size_t>(count));
    return Raw(v->data(), v->size() * sizeof(T));
  }

  /// CSR offsets for `count` lists: `count + 1` u64s, from 0,
  /// non-decreasing, narrowed to the in-memory `Offset`.
  template <typename Offset>
  bool Offsets(uint64_t count, std::vector<Offset>* offsets) {
    if (count >= (size_ - pos_) / sizeof(uint64_t)) return Fail();
    offsets->resize(static_cast<size_t>(count) + 1);
    uint64_t last = 0;
    for (Offset& o : *offsets) {
      uint64_t v = 0;
      if (!Get(&v) || v < last || v > std::numeric_limits<Offset>::max()) {
        return Fail();
      }
      o = static_cast<Offset>(last = v);
    }
    return offsets->front() == 0 || Fail();
  }
  /// One CSR block of `count` lists: the offsets, then the pool they
  /// index. False when the pool is short or an element fails the
  /// `valid` hook.
  template <typename Offset, typename T, typename Valid>
  bool Csr(uint64_t count, std::vector<Offset>* offsets, std::vector<T>* pool,
           Valid valid) {
    return Offsets(count, offsets) && Pod(pool, offsets->back()) &&
           std::all_of(pool->begin(), pool->end(), valid);
  }

  /// This section's rejection: `what`, or "malformed" once a read has
  /// failed (a check after a short read saw no real data).
  Status Reject(const std::string& what) const {
    return CorruptSection(section_, failed_ ? "malformed" : what);
  }
  bool Exhausted() const { return !failed_ && pos_ == size_; }

 private:
  bool Fail() {
    failed_ = true;
    return false;
  }

  const char* section_;
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// Fixed-size records, laid out exactly as on disk.
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
struct GridRecord {  // FloorIndex grid header, one per floor
  double origin_x, origin_y, cell;
  int32_t cols, rows;
};
static_assert(sizeof(MetaRecord) == 24 && sizeof(PartitionRecord) == 40 &&
                  sizeof(DoorRecord) == 32 && sizeof(GridRecord) == 32,
              "artifact record layout is fixed");

}  // namespace

/// Befriended by Venue, VersionedGraph and the ledger's two halves:
/// encodes the venue's private representation and the ledger's CSR
/// verbatim, and at load time adopts both, compiling the ATI rows as
/// VersionedGraph::Build does and checking the ledger against them.
class ArtifactCodec {
 public:
  static StatusOr<std::vector<uint8_t>> Encode(
      const Venue& venue, const ArtifactWriteOptions& options);
  static StatusOr<LoadedVenueWorld> Decode(const uint8_t* data, size_t size);
  static StatusOr<std::shared_ptr<const VersionedGraph>> BuildWorld(
      LoadedVenueWorld world, TvCheck check,
      const RouterBuildOptions& options);

  /// What the section encoders read: the venue and its boundary
  /// ledger, derived once, at encode time.
  struct Source {
    const Venue& venue;
    const ArtifactWriteOptions& options;
    BoundaryLedger ledger;
  };
  /// What the section decoders fill, in table order: each decoder may
  /// rely on every section before it.
  struct Sink {
    MetaRecord meta = {};
    Venue venue;
    LoadedVenueWorld world;
  };
  /// One row of the section table: the section's layout, written and
  /// read. Every section is required.
  struct Section {
    ArtifactSection kind;
    const char* name;
    void (*encode)(const Source&, ByteWriter&);
    Status (*decode)(ByteReader&, Sink&);
  };
  static const Section kSections[];
};

// The section table, in the order the writer emits it. Each decoder
// holds only its section's semantic invariants: the decode loop checks
// presence, duplicates and trailing bytes once for every row.
const ArtifactCodec::Section ArtifactCodec::kSections[] = {
    {ArtifactSection::kMeta, "Meta",
     [](const Source& s, ByteWriter& w) {
       const std::string& label = s.options.label;
       w.Put(MetaRecord{s.venue.partitions_.size(), s.venue.doors_.size(),
                        label.size()});
       w.Raw(label.data(), label.size());
     },
     [](ByteReader& r, Sink& k) {
       std::vector<char> label;
       if (!r.Get(&k.meta) || !r.Pod(&label, k.meta.label_bytes)) {
         return r.Reject("malformed");
       }
       k.world.label.assign(label.begin(), label.end());
       // The in-memory structures index partitions and doors with int32
       // ids.
       if (k.meta.num_partitions > uint64_t{1} << 30 ||
           k.meta.num_doors > uint64_t{1} << 30) {
         return r.Reject("implausible partition/door count");
       }
       return Status::Ok();
     }},
    {ArtifactSection::kPartitions, "Partitions",
     [](const Source& s, ByteWriter& w) {
       for (const Partition& p : s.venue.partitions_) {
         w.Put(PartitionRecord{p.rect.min_x, p.rect.min_y, p.rect.max_x,
                               p.rect.max_y, p.floor, 0});
       }
     },
     [](ByteReader& r, Sink& k) {
       std::vector<PartitionRecord> records;
       if (!r.Pod(&records, k.meta.num_partitions)) {
         return r.Reject("malformed");
       }
       k.venue.partitions_.resize(records.size());
       for (size_t i = 0; i < records.size(); ++i) {
         const PartitionRecord& rec = records[i];
         Partition& p = k.venue.partitions_[i];
         p.rect = Rect{rec.min_x, rec.min_y, rec.max_x, rec.max_y};
         p.floor = rec.floor;
       }
       return Status::Ok();
     }},
    {ArtifactSection::kDoors, "Doors",
     [](const Source& s, ByteWriter& w) {
       for (const Door& d : s.venue.doors_) {
         w.Put(DoorRecord{d.pos.x, d.pos.y, d.floor,
                          {d.partitions[0], d.partitions[1]}, 0});
       }
     },
     [](ByteReader& r, Sink& k) {
       std::vector<DoorRecord> records;
       if (!r.Pod(&records, k.meta.num_doors)) return r.Reject("malformed");
       k.venue.doors_.resize(records.size());
       for (size_t i = 0; i < records.size(); ++i) {
         const DoorRecord& rec = records[i];
         if (!std::all_of(rec.partitions, rec.partitions + 2,
                          Below(k.meta.num_partitions))) {
           return r.Reject("door references unknown partition");
         }
         // Edge weights are computed from door positions: a NaN or an
         // infinity would poison the frontier.
         if (!std::isfinite(rec.x) || !std::isfinite(rec.y)) {
           return r.Reject("door " + std::to_string(i) +
                           " position is not finite");
         }
         Door& d = k.venue.doors_[i];
         d.pos = Point2d{rec.x, rec.y};
         d.floor = rec.floor;
         d.partitions = {rec.partitions[0], rec.partitions[1]};
       }
       // The door lists are derived, as Venue::Builder derives them.
       k.venue.BuildDoorLists();
       return Status::Ok();
     }},
    {ArtifactSection::kDoorAtis, "DoorAtis",
     // The source intervals: the loader normalises them into the ATI
     // rows, and the update path re-derives a door's row from them.
     [](const Source& s, ByteWriter& w) {
       w.Csr(s.venue.ati_offsets_, s.venue.ati_intervals_);
     },
     [](ByteReader& r, Sink& k) {
       if (!r.Csr(k.meta.num_doors, &k.venue.ati_offsets_,
                  &k.venue.ati_intervals_, kAny)) {
         return r.Reject("malformed interval offsets");
       }
       // The loader sorts these bounds while normalising them, so they
       // pass AtiSet's own check first (a NaN has no order).
       for (size_t d = 0; d < k.meta.num_doors; ++d) {
         const auto door = static_cast<DoorId>(d);
         for (const TimeInterval& iv : k.venue.DoorAti(door)) {
           Status status = AtiSet::CheckInterval(iv);
           if (!status.ok()) {
             return r.Reject("door " + std::to_string(d) + ": " +
                             status.message());
           }
         }
       }
       return Status::Ok();
     }},
    {ArtifactSection::kFloorIndex, "FloorIndex",
     [](const Source& s, ByteWriter& w) {
       w.Put(int32_t{s.venue.min_floor_});
       w.Put(static_cast<uint32_t>(s.venue.floor_index_.size()));
       for (const Venue::FloorIndex& fi : s.venue.floor_index_) {
         w.Put(GridRecord{fi.origin_x, fi.origin_y, fi.cell, fi.cols, fi.rows});
         w.Csr(fi.cell_offsets, fi.cell_partitions);
       }
     },
     [](ByteReader& r, Sink& k) {
       uint32_t floors = 0;
       if (!r.Get(&k.venue.min_floor_) || !r.Get(&floors) || floors > 4096) {
         return r.Reject("malformed floor header");
       }
       k.venue.floor_index_.resize(floors);
       for (Venue::FloorIndex& fi : k.venue.floor_index_) {
         // Point location divides by the cell size and casts to int: a
         // non-finite grid would make every lookup undefined behaviour.
         GridRecord g;
         if (!r.Get(&g) || g.cols < 0 || g.rows < 0 ||
             !std::isfinite(g.origin_x) || !std::isfinite(g.origin_y) ||
             !std::isfinite(g.cell) || !(g.cell > 0)) {
           return r.Reject("malformed grid header");
         }
         fi.origin_x = g.origin_x;
         fi.origin_y = g.origin_y;
         fi.cell = g.cell;
         fi.cols = g.cols;
         fi.rows = g.rows;
         if (!r.Csr(uint64_t(g.cols) * uint64_t(g.rows), &fi.cell_offsets,
                    &fi.cell_partitions, Below(k.meta.num_partitions))) {
           return r.Reject("cell references unknown partition");
         }
       }
       return Status::Ok();
     }},
    {ArtifactSection::kLedger, "Ledger",
     // The boundary ledger: the count, the checkpoint times, then the
     // flip-list CSR naming the doors behind each time.
     [](const Source& s, ByteWriter& w) {
       const std::vector<double>& times = s.ledger.checkpoints.times();
       w.Put(uint64_t{times.size()});
       w.Pod(times);
       w.Csr(s.ledger.flips.offsets_, s.ledger.flips.doors_);
     },
     [](ByteReader& r, Sink& k) {
       std::vector<double>& times = k.world.checkpoint_times;
       uint64_t boundaries = 0;
       if (!r.Get(&boundaries) || !r.Pod(&times, boundaries)) {
         return r.Reject("malformed");
       }
       for (size_t i = 0; i < times.size(); ++i) {
         if (!(times[i] > 0) || !(times[i] < kSecondsPerDay) ||
             (i > 0 && !(times[i - 1] < times[i]))) {
           return r.Reject("times not strictly increasing in (0, 86400)");
         }
       }
       BoundaryFlipIndex& flips = k.world.flip_lists;
       if (!r.Csr(boundaries, &flips.offsets_, &flips.doors_,
                  Below(k.meta.num_doors))) {
         return r.Reject("flip list names an unknown door");
       }
       for (size_t b = 0; b < flips.size(); ++b) {
         const Span<DoorId> list = flips[b];
         if (list.empty()) return r.Reject("empty flip list for a checkpoint");
         if (std::adjacent_find(list.begin(), list.end(),
                                std::greater_equal<>()) != list.end()) {
           return r.Reject("flip list corrupt at boundary " +
                           std::to_string(b));
         }
       }
       return Status::Ok();
     }},
};

namespace {

const char* SectionName(uint32_t kind) {
  for (const ArtifactCodec::Section& s : ArtifactCodec::kSections) {
    if (static_cast<uint32_t>(s.kind) == kind) return s.name;
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

StatusOr<std::vector<uint8_t>> ArtifactCodec::Encode(
    const Venue& venue, const ArtifactWriteOptions& options) {
  // The boundary ledger is the one compiled structure the file stores.
  // Compiling its graph also rejects a venue a load would reject.
  auto graph = ItGraph::Build(venue);
  if (!graph.ok()) return graph.status();
  const Source source{venue, options, BoundaryLedger::Build(*graph)};

  std::vector<ArtifactSectionEntry> table;
  std::vector<ByteWriter> payloads;
  for (const Section& s : kSections) {
    ByteWriter& w = payloads.emplace_back();
    s.encode(source, w);
    table.push_back({static_cast<uint32_t>(s.kind), 0, 0, w.out.size(),
                     ArtifactChecksum(w.out.data(), w.out.size())});
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

  std::vector<uint8_t> image;
  image.reserve(offset);
  const auto* hp = reinterpret_cast<const uint8_t*>(&header);
  image.insert(image.end(), hp, hp + sizeof(header));
  const auto* tp = reinterpret_cast<const uint8_t*>(table.data());
  image.insert(image.end(), tp, tp + table.size() * sizeof(table[0]));
  for (const ByteWriter& w : payloads) {
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
      return CorruptSection(SectionName(e.kind),
                            "extends past the end of the file");
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<LoadedVenueWorld> ArtifactCodec::Decode(const uint8_t* data,
                                                 size_t size) {
  std::vector<ArtifactSectionEntry> table;
  Status header_ok = CheckHeaderAndTable(data, size, &table);
  if (!header_ok.ok()) return header_ok;

  // Verify every payload checksum before interpreting a single byte.
  std::map<uint32_t, ByteReader> readers;
  for (const ArtifactSectionEntry& e : table) {
    const char* name = SectionName(e.kind);
    if (ArtifactChecksum(data + e.offset, e.bytes) != e.checksum) {
      return CorruptSection(name, "checksum mismatch (corrupt artifact)");
    }
    if (!readers.emplace(e.kind, ByteReader(name, data + e.offset, e.bytes))
             .second) {
      return CorruptSection(name, "duplicate section");
    }
  }

  Sink sink;
  for (const Section& s : kSections) {
    const auto it = readers.find(static_cast<uint32_t>(s.kind));
    if (it == readers.end()) {
      return InvalidArgumentError(
          std::string("artifact is missing required section ") + s.name);
    }
    ByteReader& r = it->second;
    Status status = s.decode(r, sink);
    if (!status.ok()) return status;
    if (!r.Exhausted()) return r.Reject("trailing bytes");
  }
  sink.world.venue = std::make_unique<Venue>(std::move(sink.venue));
  return std::move(sink.world);
}

// ---------------------------------------------------------------------------
// World assembly
// ---------------------------------------------------------------------------

namespace {

/// Past the decoder's shape checks, each entry (b, d) must be an interior
/// boundary of door d's row at times[b], and the entries must number the
/// rows' interior boundaries: then, rows being strictly increasing, the
/// ledger is the one BoundaryLedger::Build derives.
Status CheckLedgerAgainstRows(const ItGraph& graph,
                              const BoundaryLedger& ledger) {
  const std::vector<double>& times = ledger.checkpoints.times();
  for (size_t b = 0; b < times.size(); ++b) {
    for (const DoorId d : ledger.flips[b]) {
      const AtiRow row = graph.Ati(d);
      if (!std::binary_search(row.starts().begin(), row.starts().end(),
                              times[b]) &&
          !std::binary_search(row.ends().begin(), row.ends().end(),
                              times[b])) {
        return CorruptSection(
            "Ledger", "checkpoint " + std::to_string(b) + " lists door " +
                          std::to_string(d) + ", whose row has no boundary "
                          "there");
      }
    }
  }
  size_t boundaries = 0;
  graph.ForEachInteriorBoundary([&](DoorId, double) { ++boundaries; });
  if (ledger.flips.TotalFlips() != boundaries) {
    return CorruptSection(
        "Ledger", "flip lists hold " +
                      std::to_string(ledger.flips.TotalFlips()) +
                      " entries but the ATI rows have " +
                      std::to_string(boundaries) + " interior boundaries");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::shared_ptr<const VersionedGraph>> ArtifactCodec::BuildWorld(
    LoadedVenueWorld world, TvCheck check, const RouterBuildOptions& options) {
  if (world.venue == nullptr) {
    return InvalidArgumentError("BuildWorldFromArtifact: world has no venue");
  }

  std::shared_ptr<VersionedGraph> version(new VersionedGraph());
  version->check_ = check;
  version->options_ = options;
  version->options_.warm_start = nullptr;
  version->venue_ = std::move(world.venue);

  // The graph compiles as VersionedGraph::Build compiles it; only the
  // boundary ledger is adopted as stored, once it matches the rows.
  auto graph = ItGraph::Build(*version->venue_);
  if (!graph.ok()) return graph.status();
  version->graph_ = std::make_unique<ItGraph>(*std::move(graph));
  BoundaryLedger& ledger = version->ledger_;
  ledger.checkpoints.times_ = std::move(world.checkpoint_times);
  ledger.flips = std::move(world.flip_lists);
  Status matches = CheckLedgerAgainstRows(*version->graph_, ledger);
  if (!matches.ok()) return matches;

  version->FinishBuild(/*carry_from=*/nullptr, {}, {});
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
