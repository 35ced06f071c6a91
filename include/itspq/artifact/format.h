#ifndef ITSPQ_ARTIFACT_FORMAT_H_
#define ITSPQ_ARTIFACT_FORMAT_H_

// On-disk layout of a packed venue artifact (`.itspq`).
//
// An artifact is one flat, offset-based binary file holding a venue's
// source data: partitions, doors and the doors' source ATIs. The loader
// checks them with the builder's checks and derives the partition door
// lists and the point-location grids with the builder's code, and
// VersionedGraph::Build the rest: the ATI rows, the search adjacency and
// the boundary ledger. Nothing derived is stored.
//
//   [ArtifactHeader | section table | section 0 | section 1 | ... ]
//
// Every field is little-endian (the header carries an endianness tag;
// big-endian files are rejected, never byte-swapped). Sections are
// independently checksummed with FNV-1a 64, so a corrupt or truncated
// file is rejected with a precise Status — never undefined behaviour.
// The format version is bumped on any incompatible layout change;
// readers reject versions they do not know.

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace itspq {

/// First eight bytes of every artifact.
inline constexpr char kArtifactMagic[8] = {'I', 'T', 'S', 'P',
                                           'Q', 'A', 'R', 'T'};

/// Current format version. Bump on incompatible changes; loaders reject
/// files with a version they do not understand.
///
/// History:
///   1 — initial layout (sections kMeta..kD2d).
///   2 — adds the mandatory AdjacencyCsr section (the compiled search
///       core relaxation arrays); v1 files lack it and must be rebuilt.
///   3 — drops the DistanceMatrices and AdjacencyCsr sections: edge
///       weights are computed from door positions, so nothing stores
///       them. v2 files carry both and must be rebuilt.
///   4 — drops the DoorsOf section: the loader derives the partition
///       door lists from the Doors section. Every other section keeps
///       its v3 bytes; v3 files must still be rebuilt.
///   5 — drops the CompiledAtis and D2d sections (the loader compiles
///       the ATI rows from DoorAtis), and merges Checkpoints and
///       FlipIndex into one Ledger section. Meta loses its flags field
///       and DoorAtis its leading offset count. v4 files must be rebuilt.
///   6 — drops the Ledger section: the loader derives the checkpoint
///       times and flip lists from the ATI rows. Every other section
///       keeps its v5 bytes; v5 files must still be rebuilt.
///   7 — drops the FloorIndex section: the loader derives each floor's
///       point-location grid as Venue::Builder does. Every other section
///       keeps its v6 bytes; v6 files must still be rebuilt.
inline constexpr uint32_t kArtifactFormatVersion = 7;

/// Written as 0x01020304 by a little-endian writer; a reader seeing the
/// byte-swapped value knows the file came from the other endianness.
inline constexpr uint32_t kArtifactEndianTag = 0x01020304u;

/// Section kinds, in the order the writer emits them; every one is
/// required, once. Readers locate sections by kind through the table,
/// not by position, and refuse a table listing any other kind. Retired
/// kinds stay reserved: 5 (DoorsOf, v1-v3), 6 (DistanceMatrices, v1-v2),
/// 7 (FloorIndex, v1-v6), 8 (CompiledAtis, v1-v4), 9 (Checkpoints,
/// v1-v4), 10 (FlipIndex, v1-v4), 11 (D2d, v1-v4), 12 (AdjacencyCsr, v2)
/// and 13 (Ledger, v5).
enum class ArtifactSection : uint32_t {
  kMeta = 1,        // partition and door counts, label
  kPartitions = 2,  // Rect + floor per partition
  kDoors = 3,       // position, floor, partition pair per door
  kDoorAtis = 4,    // per-door source TimeInterval CSR (pre-normalisation)
};

/// Fixed 40-byte file header. `table_checksum` covers the raw bytes of
/// the section table (header fields are validated directly: magic,
/// version, endianness, and the sizes must all be self-consistent).
struct ArtifactHeader {
  char magic[8];
  uint32_t format_version;
  uint32_t endian_tag;
  /// Total file size the writer produced; a shorter file is truncated.
  uint64_t file_bytes;
  uint32_t header_bytes;   // sizeof(ArtifactHeader)
  uint32_t section_count;
  uint64_t table_checksum;  // FNV-1a 64 over the section table bytes
};
static_assert(sizeof(ArtifactHeader) == 40, "header layout is fixed");

/// One section-table entry (32 bytes). `offset` is absolute from the
/// start of the file; `checksum` is FNV-1a 64 over the section bytes.
struct ArtifactSectionEntry {
  uint32_t kind;      // ArtifactSection
  uint32_t reserved;  // zero
  uint64_t offset;
  uint64_t bytes;
  uint64_t checksum;
};
static_assert(sizeof(ArtifactSectionEntry) == 32, "table layout is fixed");

/// The per-section integrity checksum: FNV-1a 64 widened to consume
/// eight bytes per multiply. One multiply per word instead of per byte
/// keeps cold-load verification off the critical path (~8x the byte
/// loop's throughput) while still cascading every input bit through the
/// 64-bit product, which is all corruption detection needs. The tail
/// word folds in the total length so trailing zero bytes still change
/// the digest. Deterministic and dependency-free; any change here is a
/// format break and must bump kArtifactFormatVersion.
inline uint64_t ArtifactChecksum(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  constexpr uint64_t kPrime = 1099511628211ull;  // FNV prime
  uint64_t hash = 1469598103934665603ull;        // FNV offset basis
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);  // little-endian files, L-E readers
    hash = (hash ^ word) * kPrime;
  }
  if (i < bytes || bytes == 0) {
    uint64_t word = 0;
    if (i < bytes) std::memcpy(&word, p + i, bytes - i);
    hash = (hash ^ (word + bytes)) * kPrime;
  }
  return hash;
}

}  // namespace itspq

#endif  // ITSPQ_ARTIFACT_FORMAT_H_
