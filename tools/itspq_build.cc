// itspq_build — the offline artifact builder.
//
// One pass from fleet-generator parameters to a directory of packed
// `.itspq` artifacts plus a fleet manifest: generation happens here,
// once, so a serving boot only decodes each venue and compiles it.
//
//   itspq_build --out=fleet_dir [--venues=12] [--seed=7]
//               [--min-floors=1] [--max-floors=3]
//               [--label-prefix=venue]
//
// Output: fleet_dir/venue_0000.itspq ... and fleet_dir/fleet.manifest
// (one artifact filename per line, '#' comments), consumable by
// ReadFleetManifest + VenueCatalog::AddArtifactShard.
//
// The inverse verb checks a packed fleet end to end — registers every
// manifest entry in a lazy VenueCatalog and loads each shard, exiting
// non-zero on the first rejected or unloadable artifact:
//
//   itspq_build --load=fleet_dir/fleet.manifest [--strategy=itg-a+]

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/format.h"
#include "common/memory_tracker.h"
#include "common/stats.h"
#include "gen/workload_gen.h"
#include "query/venue_catalog.h"

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "itspq_build: %s\n", message.c_str());
  std::exit(1);
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

long ParseLong(const std::string& value, const char* flag) {
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    Die(std::string("bad value for ") + flag + ": " + value);
  }
  return parsed;
}

/// The --load verb: prove a packed fleet still boots. Registers every
/// manifest entry (header + table validation), loads every shard, and
/// reports what came up — the CI smoke for cached artifact fleets.
int LoadFleet(const std::string& manifest_path, const std::string& strategy) {
  auto paths = itspq::ReadFleetManifest(manifest_path);
  if (!paths.ok()) Die("--load: " + paths.status().ToString());

  itspq::VenueCatalog catalog;
  for (const std::string& path : *paths) {
    auto id = catalog.AddArtifactShard(path, strategy);
    if (!id.ok()) Die(path + ": " + id.status().ToString());
  }
  itspq::Timer load_timer;
  size_t resident_bytes = 0;
  for (size_t i = 0; i < catalog.NumVenues(); ++i) {
    auto world = catalog.EnsureResident(static_cast<itspq::VenueId>(i));
    if (!world.ok()) {
      Die((*paths)[i] + ": " + world.status().ToString());
    }
    resident_bytes += (*world)->MemoryUsage();
  }
  std::printf(
      "itspq_build: loaded %zu shards from %s in %.1f ms (%s resident, "
      "strategy %s)\n",
      catalog.NumVenues(), manifest_path.c_str(), load_timer.ElapsedMillis(),
      itspq::FormatBytes(resident_bytes).c_str(), strategy.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir;
  std::string manifest_to_load;
  std::string strategy = "itg-a+";
  std::string label_prefix = "venue";
  itspq::FleetConfig fleet;
  fleet.num_venues = 12;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--out", &value)) {
      out_dir = value;
    } else if (ParseFlag(argv[i], "--load", &value)) {
      manifest_to_load = value;
    } else if (ParseFlag(argv[i], "--strategy", &value)) {
      strategy = value;
    } else if (ParseFlag(argv[i], "--venues", &value)) {
      fleet.num_venues = static_cast<int>(ParseLong(value, "--venues"));
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      fleet.seed = static_cast<uint64_t>(ParseLong(value, "--seed"));
    } else if (ParseFlag(argv[i], "--min-floors", &value)) {
      fleet.min_floors = static_cast<int>(ParseLong(value, "--min-floors"));
    } else if (ParseFlag(argv[i], "--max-floors", &value)) {
      fleet.max_floors = static_cast<int>(ParseLong(value, "--max-floors"));
    } else if (ParseFlag(argv[i], "--label-prefix", &value)) {
      label_prefix = value;
    } else {
      Die(std::string("unknown flag ") + argv[i] +
          " (flags: --out=DIR --venues=N --seed=S --min-floors=F "
          "--max-floors=F --label-prefix=P | --load=MANIFEST "
          "--strategy=NAME)");
    }
  }
  if (!manifest_to_load.empty()) {
    return LoadFleet(manifest_to_load, strategy);
  }
  if (out_dir.empty()) Die("--out=DIR or --load=MANIFEST is required");
  if (fleet.num_venues <= 0) Die("--venues must be positive");

  // mkdir -p, one level (fleet dirs are flat).
  if (mkdir(out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    Die("cannot create output directory " + out_dir);
  }

  itspq::Timer total_timer;
  itspq::Timer gen_timer;
  auto venues = itspq::GenerateVenueFleet(fleet);
  if (!venues.ok()) Die("fleet generation: " + venues.status().ToString());
  const double gen_ms = gen_timer.ElapsedMillis();

  std::printf("itspq_build: %d venues, seed %llu, format v%u -> %s\n",
              fleet.num_venues,
              static_cast<unsigned long long>(fleet.seed),
              itspq::kArtifactFormatVersion, out_dir.c_str());
  std::printf("%-18s %10s %10s %12s\n", "artifact", "doors", "encode_ms",
              "bytes");

  itspq::Timer encode_timer;
  std::vector<std::string> names;
  size_t total_bytes = 0;
  for (size_t i = 0; i < venues->size(); ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "venue_%04zu.itspq", i);
    itspq::ArtifactWriteOptions options;
    options.label = label_prefix + "-" + std::to_string(i);

    itspq::Timer venue_timer;
    const itspq::Venue& venue = (*venues)[i];
    itspq::Status written =
        itspq::WriteVenueArtifact(out_dir + "/" + name, venue, options);
    if (!written.ok()) {
      Die(std::string(name) + ": " + written.ToString());
    }
    struct stat st;
    const size_t bytes =
        stat((out_dir + "/" + name).c_str(), &st) == 0
            ? static_cast<size_t>(st.st_size)
            : 0;
    total_bytes += bytes;
    std::printf("%-18s %10zu %10.1f %12zu\n", name, venue.NumDoors(),
                venue_timer.ElapsedMillis(), bytes);
    names.emplace_back(name);
  }
  const double encode_ms = encode_timer.ElapsedMillis();

  // The manifest ties the directory together; loaders resolve entries
  // relative to the manifest's location.
  const std::string manifest_path = out_dir + "/fleet.manifest";
  {
    std::ofstream manifest(manifest_path, std::ios::trunc);
    if (!manifest) Die("cannot write " + manifest_path);
    manifest << "# itspq fleet manifest\n"
             << "# format_version " << itspq::kArtifactFormatVersion << "\n"
             << "# venues " << fleet.num_venues << " seed " << fleet.seed
             << "\n";
    for (const std::string& name : names) manifest << name << "\n";
  }

  std::printf(
      "wrote %zu artifacts (%s) + %s: generate %.1f ms, "
      "compile+encode %.1f ms, total %.1f ms\n",
      names.size(), itspq::FormatBytes(total_bytes).c_str(),
      manifest_path.c_str(), gen_ms, encode_ms, total_timer.ElapsedMillis());
  return 0;
}
