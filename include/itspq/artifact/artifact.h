#ifndef ITSPQ_ARTIFACT_ARTIFACT_H_
#define ITSPQ_ARTIFACT_ARTIFACT_H_

// Packed venue artifacts: build-once/load-fast serialization of a full
// venue world (format.h documents the on-disk layout).
//
// The write side packs the venue into one flat `.itspq` file:
//
//   Venue   EncodeVenueArtifact / WriteVenueArtifact
//
// The load side checksums and bounds-checks every section and decodes
// the venue straight into its flat arrays. BuildWorldFromArtifact then
// hands it to VersionedGraph::Build, the one construction path of an
// in-memory shard too: it compiles the ATI rows, the adjacency and the
// boundary ledger, and publishes the world as epoch 0, so lazy shards
// compose with the online-update plane unchanged:
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
  /// Human-readable shard label carried in the Meta section.
  std::string label;
};

/// A decoded artifact: the venue and its label. `venue` is heap-held
/// because Venue has no public default constructor.
struct LoadedVenueWorld {
  std::unique_ptr<Venue> venue;
  std::string label;
};

/// Packs `venue` into an artifact image. Errors when the venue's ATIs
/// fail graph compilation.
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

/// Reads `path` into memory and decodes it.
StatusOr<LoadedVenueWorld> LoadVenueArtifact(const std::string& path);

/// Cheap registration-time check: reads only the header + section table
/// and validates magic/version/endianness/sizes/table checksum, and that
/// the table lists each section the format defines exactly once with a
/// zero reserved word, without touching section payloads. A file passing
/// this can still fail LoadVenueArtifact on a payload checksum.
Status ValidateArtifactHeader(const std::string& path);

/// Reads a fleet manifest: one artifact filename per line, blank lines
/// and '#' comments skipped, entries resolved relative to the manifest's
/// directory.
StatusOr<std::vector<std::string>> ReadFleetManifest(const std::string& path);

/// Publishes a decoded artifact's venue as a `VersionedGraph` epoch 0
/// under strategy `check`: VersionedGraph::Build(venue, check, options).
/// kInvalidArgument when `world` holds no venue, or naming the DoorAtis
/// section when a stored interval fails normalisation (checked here).
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
