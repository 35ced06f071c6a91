#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/venue_gen.h"
#include "itgraph/d2d_index.h"
#include "itgraph/itgraph.h"
#include "query/router.h"
#include "query/strategies.h"

namespace itspq {
namespace {

struct IndexWorld {
  std::unique_ptr<Venue> venue;
  std::unique_ptr<ItGraph> graph;
};

IndexWorld MakeWorld() {
  MallConfig config = MallConfig::Paper();
  config.floors = 1;
  auto mall = GenerateMall(config);
  EXPECT_TRUE(mall.ok());
  auto varied = AssignTemporalVariations(*mall, AtiGenConfig{});
  EXPECT_TRUE(varied.ok());
  IndexWorld world;
  world.venue = std::make_unique<Venue>(*std::move(varied));
  auto graph = ItGraph::Build(*world.venue);
  EXPECT_TRUE(graph.ok());
  world.graph = std::make_unique<ItGraph>(*std::move(graph));
  return world;
}

TEST(D2dIndexTest, MatchesStaticDijkstra) {
  IndexWorld world = MakeWorld();
  auto index = D2dIndex::Build(*world.graph);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->NumDoors(), world.graph->NumDoors());
  EXPECT_GT(index->MemoryUsage(), 0u);

  auto ntv = MakeRouter("ntv", *world.graph);
  ASSERT_TRUE(ntv.ok());
  const IndoorPoint ps{{100, 12}, 0};   // corridor band 0
  const IndoorPoint pt{{1200, 700}, 0};
  auto from_index = index->Query(ps, pt);
  auto from_dijkstra = (*ntv)->Route(
      QueryRequest{ps, pt, Instant(), QueryOptions()}, nullptr);
  ASSERT_TRUE(from_index.ok());
  ASSERT_TRUE(from_dijkstra.ok());
  ASSERT_TRUE(from_index->found);
  ASSERT_TRUE(from_dijkstra->found);
  EXPECT_NEAR(from_index->distance_m, from_dijkstra->path.length_m(), 1e-6);
}

TEST(D2dIndexTest, QueryErrorsOutsideVenue) {
  IndexWorld world = MakeWorld();
  auto index = D2dIndex::Build(*world.graph);
  ASSERT_TRUE(index.ok());
  auto answer = index->Query(IndoorPoint{{-50, -50}, 0},
                             IndoorPoint{{100, 12}, 0});
  EXPECT_FALSE(answer.ok());
}

TEST(D2dIndexTest, StalenessDayShape) {
  IndexWorld world = MakeWorld();
  auto index = D2dIndex::Build(*world.graph);
  ASSERT_TRUE(index.ok());

  // 3 am: every shop door is shut — all materialised entries are dead.
  const auto night = index->SampleStaleness(Instant::FromHMS(3), 40, 1);
  EXPECT_EQ(night.sampled, 40u);
  EXPECT_DOUBLE_EQ(night.InvalidFraction(), 1.0);

  // Noon: the mall is fully open — the index is still accurate.
  const auto noon = index->SampleStaleness(Instant::FromHMS(12), 40, 1);
  EXPECT_EQ(noon.sampled, 40u);
  EXPECT_DOUBLE_EQ(noon.InvalidFraction(), 0.0);
}

}  // namespace
}  // namespace itspq
