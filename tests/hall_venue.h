#ifndef ITSPQ_TESTS_HALL_VENUE_H_
#define ITSPQ_TESTS_HALL_VENUE_H_

// A hand-built three-room venue and the one way to give it a door that
// names a single partition on both sides, shared by the tests that pin
// how the search and the adjacency treat such a door.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/format.h"
#include "venue/venue.h"

namespace itspq {

namespace hall_venue_internal {

template <typename T>
T OrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

}  // namespace hall_venue_internal

// Three rooms off one hall, with doors between neighbouring rooms.
inline Venue MakeHallVenue() {
  Venue::Builder builder;
  const PartitionId hall = builder.AddPartition(Rect{0, 10, 30, 20}, 0);
  const PartitionId room_a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
  const PartitionId room_b = builder.AddPartition(Rect{10, 0, 20, 10}, 0);
  const PartitionId room_c = builder.AddPartition(Rect{20, 0, 30, 10}, 0);
  builder.AddDoor(Point2d{5, 10}, 0, room_a, hall);
  builder.AddDoor(Point2d{15, 10}, 0, room_b, hall);
  builder.AddDoor(Point2d{25, 10}, 0, room_c, hall);
  builder.AddDoor(Point2d{10, 5}, 0, room_a, room_b);
  builder.AddDoor(Point2d{20, 5}, 0, room_b, room_c);
  return hall_venue_internal::OrDie(std::move(builder).Build(),
                                    "Venue::Builder::Build");
}

// `venue` packed, then re-decoded with door `d`'s second side naming
// its first partition too. Venue::Builder refuses such a door; a
// re-sealed artifact is the one way in. The decoder derives the door
// lists from the edited doors.
inline LoadedVenueWorld DecodeWithDoorNamingOnePartitionTwice(
    const Venue& venue, DoorId d) {
  std::vector<uint8_t> image = hall_venue_internal::OrDie(
      EncodeVenueArtifact(venue), "EncodeVenueArtifact");
  ArtifactHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<ArtifactSectionEntry> table(header.section_count);
  std::memcpy(table.data(), image.data() + sizeof(header),
              table.size() * sizeof(table[0]));
  auto payload = [&](ArtifactSection kind) {
    for (const ArtifactSectionEntry& e : table) {
      if (e.kind == static_cast<uint32_t>(kind)) return image.data() + e.offset;
    }
    ADD_FAILURE() << "no section " << static_cast<uint32_t>(kind);
    std::abort();
  };
  // Doors: 32-byte records, the partition pair at bytes 20..27.
  uint8_t* doors = payload(ArtifactSection::kDoors);
  std::memcpy(doors + 32 * d + 24, doors + 32 * d + 20, sizeof(int32_t));
  // Re-seal every checksum, as the writer would have.
  for (ArtifactSectionEntry& e : table) {
    e.checksum = ArtifactChecksum(image.data() + e.offset, e.bytes);
  }
  header.table_checksum =
      ArtifactChecksum(table.data(), table.size() * sizeof(table[0]));
  std::memcpy(image.data(), &header, sizeof(header));
  std::memcpy(image.data() + sizeof(header), table.data(),
              table.size() * sizeof(table[0]));
  return hall_venue_internal::OrDie(
      DecodeVenueArtifact(image.data(), image.size()), "DecodeVenueArtifact");
}

}  // namespace itspq

#endif  // ITSPQ_TESTS_HALL_VENUE_H_
