#include "update/update_applier.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "itgraph/snapshot_store.h"

namespace itspq {

StatusOr<std::shared_ptr<const VersionedGraph>> UpdateApplier::Apply(
    const VersionedGraph& current, const AtiUpdate& update,
    UpdateOutcome* outcome) {
  const Venue& old_venue = current.venue();
  const DoorId door = update.door_id;
  if (door < 0 || static_cast<size_t>(door) >= old_venue.NumDoors()) {
    return NotFoundError("ApplyAtiUpdate: venue has no door " +
                         std::to_string(door));
  }
  std::shared_ptr<VersionedGraph> next(new VersionedGraph());
  next->epoch_ = current.epoch_ + 1;
  next->check_ = current.check_;
  next->options_ = current.options_;
  // Budget may have been re-targeted since construction
  // (SetSnapshotBudget / ApportionSnapshotBudget hit the live store,
  // not the stored options) — read it back so the next epoch keeps it.
  const SnapshotStore* old_store = current.router().snapshot_store();
  if (old_store != nullptr) {
    next->options_.snapshot_cache.budget_bytes =
        old_store->Stats().budget_bytes;
  }

  // Geometry shared; interval rows copied with the door's row spliced in.
  auto venue = old_venue.WithDoorAti(door, update.intervals);
  if (!venue.ok()) return venue.status();
  next->venue_ = std::make_unique<Venue>(*std::move(venue));

  // BuildFrom normalises the replacement: a malformed update fails
  // here, before anything is published, leaving `current` the world.
  auto graph = ItGraph::BuildFrom(current.graph(), *next->venue_, door);
  if (!graph.ok()) {
    return Status(graph.status().code(),
                  "ApplyAtiUpdate: " + graph.status().message());
  }
  next->graph_ = std::make_unique<ItGraph>(*std::move(graph));
  next->ledger_ = BoundaryLedger::Build(*next->graph_);

  // Carry plan: new interval j carries from old interval i iff their
  // spans are the SAME [lo, hi) — unchanged boundary times are
  // identical doubles, so exact equality is the right test. A matched
  // span contains no checkpoint of either world, hence both the old and
  // the new door ATI are constant across it and one midpoint probe
  // decides whether the open-door set changed there (-> invalidate).
  const CheckpointSet& old_cps = current.checkpoints();
  const CheckpointSet& new_cps = next->checkpoints();
  std::vector<ptrdiff_t> carry_plan(new_cps.NumIntervals(), kNoCarrySource);
  std::vector<size_t> invalidate;
  const AtiRow old_ati = current.graph().Ati(door);
  const AtiRow new_ati = next->graph_->Ati(door);
  for (size_t j = 0; j < new_cps.NumIntervals(); ++j) {
    const double mid = new_cps.IntervalMidpoint(j);
    const size_t i = old_cps.IntervalIndexOf(mid);
    if (old_cps.IntervalStart(i) != new_cps.IntervalStart(j) ||
        old_cps.IntervalEnd(i) != new_cps.IntervalEnd(j)) {
      continue;
    }
    carry_plan[j] = static_cast<ptrdiff_t>(i);
    if (old_ati.ContainsTimeOfDay(mid) != new_ati.ContainsTimeOfDay(mid)) {
      invalidate.push_back(j);
    }
  }

  if (outcome != nullptr) {
    const std::vector<double>& old_times = old_cps.times();
    const std::vector<double>& new_times = new_cps.times();
    *outcome = UpdateOutcome();
    outcome->epoch = next->epoch_;
    outcome->intervals_before = old_cps.NumIntervals();
    outcome->intervals_after = new_cps.NumIntervals();
    std::vector<double> kept;
    std::set_intersection(old_times.begin(), old_times.end(),
                          new_times.begin(), new_times.end(),
                          std::back_inserter(kept));
    outcome->checkpoints_removed = old_times.size() - kept.size();
    outcome->checkpoints_added = new_times.size() - kept.size();
  }

  next->FinishBuild(old_store, std::move(carry_plan), std::move(invalidate));

  if (outcome != nullptr && next->router_->snapshot_store() != nullptr) {
    const CacheStatsSnapshot stats = next->router_->snapshot_store()->Stats();
    outcome->snapshots_carried = stats.snapshots_carried;
    outcome->snapshots_rebased = stats.snapshots_rebased;
    outcome->intervals_invalidated = stats.intervals_invalidated;
  }
  return std::shared_ptr<const VersionedGraph>(std::move(next));
}

}  // namespace itspq
