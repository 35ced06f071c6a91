#include "update/versioned_graph.h"

#include <utility>

namespace itspq {

StatusOr<std::shared_ptr<const VersionedGraph>> VersionedGraph::Build(
    Venue venue, TvCheck check, const RouterBuildOptions& options) {
  // shared_ptr<VersionedGraph> first so FinishBuild can run on a
  // non-const object; published as const.
  std::shared_ptr<VersionedGraph> version(new VersionedGraph());
  version->check_ = check;
  version->options_ = options;
  version->options_.warm_start = nullptr;
  version->venue_ = std::make_unique<Venue>(std::move(venue));

  auto graph = ItGraph::Build(*version->venue_);
  if (!graph.ok()) return graph.status();
  version->graph_ = std::make_unique<ItGraph>(*std::move(graph));
  version->ledger_ = BoundaryLedger::Build(*version->graph_);
  version->FinishBuild(/*carry_from=*/nullptr, {}, {});
  return std::shared_ptr<const VersionedGraph>(std::move(version));
}

void VersionedGraph::FinishBuild(const SnapshotStore* carry_from,
                                 std::vector<ptrdiff_t> carry_plan,
                                 std::vector<size_t> invalidate) {
  SnapshotWarmStart warm;
  warm.checkpoints = &ledger_.checkpoints;
  warm.flip_index = &ledger_.flips;
  warm.carry_from = carry_from;
  warm.carry_plan = std::move(carry_plan);
  warm.invalidate = std::move(invalidate);

  RouterBuildOptions build = options_;
  build.warm_start = &warm;
  router_ = std::make_unique<TemporalRouter>(*graph_, check_, build);
}

size_t VersionedGraph::MemoryUsage() const {
  return venue_->MemoryUsage() + graph_->MemoryUsage() +
         checkpoints().times().capacity() * sizeof(double) +
         flip_index().MemoryUsage() + router_->MemoryUsage();
}

}  // namespace itspq
