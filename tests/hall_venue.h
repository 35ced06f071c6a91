#ifndef ITSPQ_TESTS_HALL_VENUE_H_
#define ITSPQ_TESTS_HALL_VENUE_H_

// A hand-built three-room venue, shared by the tests that pin the
// search's edge counts and the boundary ledger on it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>

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

}  // namespace itspq

#endif  // ITSPQ_TESTS_HALL_VENUE_H_
