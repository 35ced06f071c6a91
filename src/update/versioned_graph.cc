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
  BuildBoundaryLedger(*version->graph_, &version->boundary_times_,
                      &version->boundary_doors_);

  Status status = version->FinishBuild(/*carry_from=*/nullptr, {}, {});
  if (!status.ok()) return status;
  return std::shared_ptr<const VersionedGraph>(std::move(version));
}

Status VersionedGraph::FinishBuild(const SnapshotStore* carry_from,
                                   std::vector<ptrdiff_t> carry_plan,
                                   std::vector<size_t> invalidate) {
  auto cps = CheckpointSet::FromTimes(boundary_times_);
  if (!cps.ok()) return cps.status();
  flips_ = BoundaryFlipIndex::FromLists(boundary_doors_);

  SnapshotWarmStart warm;
  warm.checkpoints = &*cps;
  warm.flip_index = &flips_;
  warm.carry_from = carry_from;
  warm.carry_plan = std::move(carry_plan);
  warm.invalidate = std::move(invalidate);

  RouterBuildOptions build = options_;
  build.warm_start = &warm;
  router_ = std::make_unique<TemporalRouter>(*graph_, check_, build);
  return Status::Ok();
}

size_t VersionedGraph::MemoryUsage() const {
  size_t ledger = boundary_times_.capacity() * sizeof(double) +
                  boundary_doors_.capacity() * sizeof(std::vector<DoorId>);
  for (const auto& doors : boundary_doors_) {
    ledger += doors.capacity() * sizeof(DoorId);
  }
  return venue_->MemoryUsage() + graph_->MemoryUsage() + ledger +
         flips_.MemoryUsage() + router_->MemoryUsage();
}

}  // namespace itspq
