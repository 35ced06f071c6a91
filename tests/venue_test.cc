#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "venue/venue.h"

namespace itspq {
namespace {

// Two rooms side by side sharing a wall at x = 10, plus a hall above.
//
//   +--------+--------+
//   |  hall (y 10..20) |
//   +---d1---+---d2---+
//   | room a | room b |
//   +--------+--------+
Venue MakeTinyVenue() {
  Venue::Builder builder;
  const PartitionId a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
  const PartitionId b = builder.AddPartition(Rect{10, 0, 20, 10}, 0);
  const PartitionId hall = builder.AddPartition(Rect{0, 10, 20, 20}, 0);
  builder.AddDoor(Point2d{5, 10}, 0, a, hall);
  builder.AddDoor(Point2d{15, 10}, 0, b, hall);
  auto venue = std::move(builder).Build();
  EXPECT_TRUE(venue.ok());
  return *std::move(venue);
}

TEST(VenueBuilderTest, BuildsAndIndexes) {
  const Venue venue = MakeTinyVenue();
  EXPECT_EQ(venue.NumPartitions(), 3u);
  EXPECT_EQ(venue.NumDoors(), 2u);
  EXPECT_EQ(venue.DoorsOf(0).size(), 1u);
  EXPECT_EQ(venue.DoorsOf(2).size(), 2u);  // the hall touches both doors
  EXPECT_GT(venue.MemoryUsage(), 0u);
}

TEST(VenueBuilderTest, RejectsBadInput) {
  {
    Venue::Builder builder;
    builder.AddPartition(Rect{0, 0, 10, 0}, 0);  // degenerate
    EXPECT_FALSE(std::move(builder).Build().ok());
  }
  {
    Venue::Builder builder;
    const PartitionId a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
    builder.AddDoor(Point2d{5, 5}, 0, a, a);  // self-loop
    EXPECT_FALSE(std::move(builder).Build().ok());
  }
  {
    Venue::Builder builder;
    const PartitionId a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
    builder.AddDoor(Point2d{5, 5}, 0, a, 7);  // unknown partition
    EXPECT_FALSE(std::move(builder).Build().ok());
  }
  for (const Point2d& pos : {Point2d{std::nan(""), 5}, Point2d{5, HUGE_VAL}}) {
    Venue::Builder builder;
    const PartitionId a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
    const PartitionId b = builder.AddPartition(Rect{10, 0, 20, 10}, 0);
    builder.AddDoor(pos, 0, a, b);  // edge weights would be NaN
    const auto built = std::move(builder).Build();
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(built.status().message().find("not finite"), std::string::npos)
        << built.status().ToString();
  }
}

// A NaN bound would hide its partition from every lookup, and an
// infinite one would size the location grid from an infinite box.
TEST(VenueBuilderTest, RejectsNonFinitePartitionRectangles) {
  for (const Rect& bad : {Rect{0, std::nan(""), 10, 10},
                          Rect{0, 0, HUGE_VAL, 10},
                          Rect{-HUGE_VAL, 0, 10, 10}}) {
    Venue::Builder builder;
    const PartitionId a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
    const PartitionId b = builder.AddPartition(bad, 0);
    builder.AddDoor(Point2d{10, 5}, 0, a, b);
    const auto built = std::move(builder).Build();
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(built.status().message(), "partition 1 rectangle is not finite");
  }
}

// A rectangle whose min exceeds its max on either axis is refused like
// a zero-width one: the location grid would size a floor from it.
TEST(VenueBuilderTest, RejectsInvertedPartitionRectangles) {
  for (const Rect& bad : {Rect{10, 0, 0, 10}, Rect{0, 10, 10, 0}}) {
    Venue::Builder builder;
    builder.AddPartition(Rect{0, 0, 10, 10}, 0);
    builder.AddPartition(bad, 0);
    const auto built = std::move(builder).Build();
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(built.status().message(),
              "partition 1 has a degenerate rectangle");
  }
}

TEST(VenueTest, LocateAllInterior) {
  const Venue venue = MakeTinyVenue();
  const auto in_a = venue.LocateAll(IndoorPoint{{3, 3}, 0});
  ASSERT_EQ(in_a.size(), 1u);
  EXPECT_EQ(in_a[0], 0);
  // Wrong floor: nowhere.
  EXPECT_TRUE(venue.LocateAll(IndoorPoint{{3, 3}, 1}).empty());
  // Outside the footprint entirely.
  EXPECT_TRUE(venue.LocateAll(IndoorPoint{{50, 50}, 0}).empty());
}

TEST(VenueTest, LocateAllOnSharedBoundaryReturnsBoth) {
  const Venue venue = MakeTinyVenue();
  auto shared = venue.LocateAll(IndoorPoint{{10, 5}, 0});  // wall a|b
  std::sort(shared.begin(), shared.end());
  ASSERT_EQ(shared.size(), 2u);
  EXPECT_EQ(shared[0], 0);
  EXPECT_EQ(shared[1], 1);
}

// The hall's two doors, 10 m apart: the door-to-door distance a
// search computes from their positions, either way round.
TEST(VenueTest, DoorDistanceIsEuclideanAndSymmetric) {
  const Venue venue = MakeTinyVenue();
  ASSERT_EQ(venue.DoorsOf(2), (std::vector<DoorId>{0, 1}));
  const Point2d& d0 = venue.door(0).pos;
  const Point2d& d1 = venue.door(1).pos;
  EXPECT_EQ(EuclideanDistance(d0, d1), 10.0);
  EXPECT_EQ(EuclideanDistance(d1, d0), 10.0);
  EXPECT_EQ(EuclideanDistance(d0, d0), 0.0);
}

TEST(VenueBuilderTest, SetDoorAtiValidatesDoorId) {
  Venue::Builder builder = Venue::Builder::FromVenue(MakeTinyVenue());
  EXPECT_TRUE(builder.SetDoorAti(0, {MakeInterval(8, 0, 20, 0)}).ok());
  EXPECT_FALSE(builder.SetDoorAti(99, {}).ok());
  auto venue = std::move(builder).Build();
  ASSERT_TRUE(venue.ok());
  EXPECT_EQ(venue->DoorAti(0).size(), 1u);
  EXPECT_TRUE(venue->DoorAti(1).empty());
}

TEST(VenueBuilderTest, FromVenueRoundTrips) {
  const Venue original = MakeTinyVenue();
  auto copy = std::move(Venue::Builder::FromVenue(original)).Build();
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->NumPartitions(), original.NumPartitions());
  EXPECT_EQ(copy->NumDoors(), original.NumDoors());
  for (PartitionId p = 0; p < 3; ++p) {
    EXPECT_EQ(copy->DoorsOf(p), original.DoorsOf(p)) << "partition " << p;
  }
  EXPECT_EQ(copy->door(1).pos.x, original.door(1).pos.x);
  EXPECT_EQ(copy->door(1).pos.y, original.door(1).pos.y);
}

// A plain copy owns its geometry: it shares no array with its source,
// so a copy never keeps the source's block alive (a served catalog built
// from copies of a generated fleet holds only its own blocks). A
// FromVenue rebuild with ATI edits only shares it.
TEST(VenueTest, CopySharesNothingButAnAtiEditSharesTheGeometry) {
  const Venue original = MakeTinyVenue();
  const Venue copied(original);
  Venue assigned = MakeTinyVenue();
  assigned = original;
  const Venue* const copies[] = {&copied, &assigned};
  for (const Venue* copy : copies) {
    EXPECT_NE(&copy->door(0), &original.door(0));
    EXPECT_NE(&copy->partition(0), &original.partition(0));
    EXPECT_NE(copy->DoorsOf(2).begin(), original.DoorsOf(2).begin());
    EXPECT_EQ(copy->DoorsOf(2), original.DoorsOf(2));
    EXPECT_EQ(copy->LocateAll({{5, 15}, 0}), original.LocateAll({{5, 15}, 0}));
  }

  Venue::Builder builder = Venue::Builder::FromVenue(original);
  ASSERT_TRUE(builder.SetDoorAti(1, {MakeInterval(8, 0, 20, 0)}).ok());
  const Venue edited = *std::move(builder).Build();
  EXPECT_EQ(&edited.door(0), &original.door(0));
  EXPECT_EQ(edited.DoorsOf(2).begin(), original.DoorsOf(2).begin());
  EXPECT_EQ(edited.DoorAti(1).size(), 1u);
  EXPECT_TRUE(original.DoorAti(1).empty());

  // Adding a door after FromVenue clones the block first: the source
  // keeps its doors and lists.
  Venue::Builder grown = Venue::Builder::FromVenue(original);
  grown.AddDoor(Point2d{10, 5}, 0, 0, 1);
  const Venue larger = *std::move(grown).Build();
  EXPECT_NE(&larger.door(0), &original.door(0));
  EXPECT_EQ(larger.NumDoors(), 3u);
  EXPECT_EQ(original.NumDoors(), 2u);
  EXPECT_EQ(larger.DoorsOf(0).size(), 2u);
  EXPECT_EQ(original.DoorsOf(0).size(), 1u);
}

}  // namespace
}  // namespace itspq
