#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "common/time.h"
#include "itgraph/itgraph.h"
#include "query/router.h"
#include "query/strategies.h"
#include "query/verifier.h"

namespace itspq {
namespace {

// Three rooms in a row; the middle one is 300 m long, so crossing it
// takes 250 s at walking speed:
//
//   A --d1-- B(300 m) --d2-- C      d2 closes at 12:00.
//
// Queried just before noon, the snapshot baseline routes through d2
// even though it shuts mid-walk — the paper's rule-1 violation.
struct Corridor {
  std::unique_ptr<Venue> venue;
  std::unique_ptr<ItGraph> graph;
  IndoorPoint ps{{5, 5}, 0};
  IndoorPoint pt{{315, 5}, 0};
};

Corridor MakeCorridor() {
  Venue::Builder builder;
  const PartitionId a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
  const PartitionId b = builder.AddPartition(Rect{10, 0, 310, 10}, 0);
  const PartitionId c = builder.AddPartition(Rect{310, 0, 320, 10}, 0);
  const DoorId d1 = builder.AddDoor(Point2d{10, 5}, 0, a, b);
  const DoorId d2 = builder.AddDoor(Point2d{310, 5}, 0, b, c);
  EXPECT_TRUE(builder.SetDoorAti(d1, {MakeInterval(8, 0, 22, 0)}).ok());
  EXPECT_TRUE(builder.SetDoorAti(d2, {MakeInterval(8, 0, 12, 0)}).ok());
  auto venue = std::move(builder).Build();
  EXPECT_TRUE(venue.ok());

  Corridor corridor;
  corridor.venue = std::make_unique<Venue>(*std::move(venue));
  auto graph = ItGraph::Build(*corridor.venue);
  EXPECT_TRUE(graph.ok());
  corridor.graph = std::make_unique<ItGraph>(*std::move(graph));
  return corridor;
}

TEST(VerifierTest, AcceptsPathWithAllDoorsOpenOnArrival) {
  Corridor corridor = MakeCorridor();
  auto snap = MakeRouter("snap", *corridor.graph);
  ASSERT_TRUE(snap.ok());
  // Mid-morning: d2 stays open long past the ~260 s walk.
  auto result = (*snap)->Route(
      QueryRequest{corridor.ps, corridor.pt, Instant::FromHMS(10),
                   QueryOptions()},
      nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found);
  ASSERT_EQ(result->path.steps().size(), 2u);
  EXPECT_TRUE(VerifyPath(*corridor.graph, result->path).ok());
}

TEST(VerifierTest, RejectsSnapshotPathClosingMidWalk) {
  Corridor corridor = MakeCorridor();
  auto snap = MakeRouter("snap", *corridor.graph);
  ASSERT_TRUE(snap.ok());
  // 11:59: the snapshot still shows d2 open, but the walker reaches it
  // ~254 s later — after the 12:00 close.
  auto result = (*snap)->Route(
      QueryRequest{corridor.ps, corridor.pt, Instant::FromHMS(11, 59),
                   QueryOptions()},
      nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found);
  const Status verdict = VerifyPath(*corridor.graph, result->path);
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.code(), StatusCode::kFailedPrecondition);
}

TEST(VerifierTest, EngineRefusesWhatSnapWronglyAnswers) {
  Corridor corridor = MakeCorridor();
  auto itg_s = MakeRouter("itg-s", *corridor.graph);
  ASSERT_TRUE(itg_s.ok());
  QueryContext context;
  // Arrival projection sees d2 closed by arrival time: no valid route.
  auto result = (*itg_s)->Route(
      QueryRequest{corridor.ps, corridor.pt, Instant::FromHMS(11, 59),
                   QueryOptions()},
      &context);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->found);
  // A minute after opening time in the morning it works fine.
  auto morning = (*itg_s)->Route(
      QueryRequest{corridor.ps, corridor.pt, Instant::FromHMS(8, 1),
                   QueryOptions()},
      &context);
  ASSERT_TRUE(morning.ok());
  EXPECT_TRUE(morning->found);
  EXPECT_TRUE(VerifyPath(*corridor.graph, morning->path).ok());
}

TEST(VerifierTest, EmptyPathIsTriviallyValid) {
  Corridor corridor = MakeCorridor();
  EXPECT_TRUE(VerifyPath(*corridor.graph, Path{}).ok());
}

}  // namespace
}  // namespace itspq
