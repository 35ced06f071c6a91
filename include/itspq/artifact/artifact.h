#ifndef ITSPQ_ARTIFACT_ARTIFACT_H_
#define ITSPQ_ARTIFACT_ARTIFACT_H_

// Packed venue artifacts: build-once/load-fast serialization of a full
// venue world (format.h documents the on-disk layout).
//
// The write side compiles everything expensive exactly once — ATIs
// are normalised, the checkpoint ledger and flip CSR are derived, the
// D2D matrix optionally materialised — and packs it into one flat
// `.itspq` file:
//
//   ItGraph + ledger + (D2D)   EncodeVenueArtifact / WriteVenueArtifact
//
// The load side is O(file size): every section is checksummed, bounds-
// checked, and adopted verbatim — no AtiSet::Create, no Dijkstra, no
// checkpoint probe. BuildWorldFromArtifact then publishes the decoded
// world as a `VersionedGraph` epoch 0, so lazy shards compose with the
// online-update plane unchanged:
//
//   LoadVenueArtifact(path) -> LoadedVenueWorld
//     -> BuildWorldFromArtifact(world, "itg-a+") -> shared_ptr<const VersionedGraph>
//
// A fleet directory is tied together by a plain-text manifest (one
// artifact filename per line, '#' comments) written by tools/itspq_build.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/router.h"
#include "query/strategies.h"
#include "venue/venue.h"

namespace itspq {

class VersionedGraph;

struct ArtifactWriteOptions {
  /// Materialise and embed the n x n D2D matrix (one static Dijkstra
  /// per door at encode time — the whole point is paying it offline).
  bool include_d2d = false;
  /// Human-readable shard label carried in the Meta section.
  std::string label;
};

/// A decoded artifact: everything needed to assemble a serving world
/// with zero re-normalisation. `venue` is heap-held because Venue has
/// no public default constructor.
struct LoadedVenueWorld {
  std::unique_ptr<Venue> venue;
  /// The compiled ATI rows, adopted verbatim into the ItGraph: door d's
  /// normalised intervals are [ati_starts[i], ati_ends[i]) for i in
  /// [ati_offsets[d], ati_offsets[d + 1]).
  std::vector<uint32_t> ati_offsets;
  std::vector<double> ati_starts;
  std::vector<double> ati_ends;
  /// The boundary ledger: checkpoint_times[i] is contributed by exactly
  /// the (ascending) doors in flip_lists[i].
  std::vector<double> checkpoint_times;
  std::vector<std::vector<DoorId>> flip_lists;
  /// Row-major n x n materialised distances; empty when the artifact
  /// was written without --d2d.
  std::vector<double> d2d_matrix;
  std::string label;
};

/// Compiles `venue` into a packed artifact image. Errors when the
/// venue's ATIs fail graph compilation.
StatusOr<std::vector<uint8_t>> EncodeVenueArtifact(
    const Venue& venue,
    const ArtifactWriteOptions& options = ArtifactWriteOptions());

/// EncodeVenueArtifact + atomic-ish write to `path` (errors on I/O).
Status WriteVenueArtifact(const std::string& path, const Venue& venue,
                          const ArtifactWriteOptions& options =
                              ArtifactWriteOptions());

/// Parses and validates a full artifact image. Rejection is always a
/// precise Status — wrong magic, foreign endianness, future format
/// version, truncation, checksum mismatch, or structural corruption —
/// never UB on hostile bytes.
StatusOr<LoadedVenueWorld> DecodeVenueArtifact(const uint8_t* data,
                                               size_t size);

/// Reads `path` into memory and decodes it. O(file size).
StatusOr<LoadedVenueWorld> LoadVenueArtifact(const std::string& path);

/// Cheap registration-time check: reads only the header + section table
/// and validates magic/version/endianness/sizes/table checksum without
/// touching section payloads. A file passing this can still fail
/// LoadVenueArtifact on a payload checksum.
Status ValidateArtifactHeader(const std::string& path);

/// Reads a fleet manifest: one artifact filename per line, blank lines
/// and '#' comments skipped, entries resolved relative to the manifest's
/// directory.
StatusOr<std::vector<std::string>> ReadFleetManifest(const std::string& path);

/// Assembles a serving world from a decoded artifact and publishes it
/// as a `VersionedGraph` epoch 0 under strategy `check` — the lazy-load
/// equivalent of VersionedGraph::Build(venue, ...), minus all the
/// compilation that build performs (the artifact already carries it).
StatusOr<std::shared_ptr<const VersionedGraph>> BuildWorldFromArtifact(
    LoadedVenueWorld world, TvCheck check,
    const RouterBuildOptions& options = RouterBuildOptions());
/// As above, resolving `strategy` through ParseTvCheck (kNotFound on an
/// unknown name).
inline StatusOr<std::shared_ptr<const VersionedGraph>> BuildWorldFromArtifact(
    LoadedVenueWorld world, const std::string& strategy,
    const RouterBuildOptions& options = RouterBuildOptions()) {
  auto check = ParseTvCheck(strategy);
  if (!check.ok()) return check.status();
  return BuildWorldFromArtifact(std::move(world), *check, options);
}

}  // namespace itspq

#endif  // ITSPQ_ARTIFACT_ARTIFACT_H_
