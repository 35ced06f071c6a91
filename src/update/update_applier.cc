#include "update/update_applier.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "itgraph/snapshot_store.h"

namespace itspq {

namespace {

/// Span of interval `index` under sorted boundary `times`:
/// [times[index-1], times[index]) with times[-1] = 0, times[n] = 86400.
struct Bounds {
  double lo;
  double hi;
};

Bounds SpanOf(const std::vector<double>& times, size_t index) {
  return Bounds{index == 0 ? 0.0 : times[index - 1],
                index == times.size() ? kSecondsPerDay : times[index]};
}

}  // namespace

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

  // Copy-on-write venue: geometry carried, one ATI row replaced.
  Venue::Builder builder = Venue::Builder::FromVenue(old_venue);
  Status set = builder.SetDoorAti(door, update.intervals);
  if (!set.ok()) return set;
  auto venue = std::move(builder).Build();
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
  const AtiRow new_ati = next->graph_->Ati(door);

  // Patch the boundary ledger: remove the door's old contributions
  // (dropping times no other door holds), insert its new ones. Only
  // this door's ledger entries move — O(|T| + |old ATI| + |new ATI|).
  next->boundary_times_ = current.boundary_times_;
  next->boundary_doors_ = current.boundary_doors_;
  const std::vector<double> old_bounds =
      current.graph().Ati(door).InteriorBoundaries();
  for (double t : old_bounds) {
    const auto it = std::lower_bound(next->boundary_times_.begin(),
                                     next->boundary_times_.end(), t);
    const size_t b =
        static_cast<size_t>(it - next->boundary_times_.begin());
    std::vector<DoorId>& doors = next->boundary_doors_[b];
    doors.erase(std::remove(doors.begin(), doors.end(), door), doors.end());
    if (doors.empty()) {
      next->boundary_times_.erase(it);
      next->boundary_doors_.erase(next->boundary_doors_.begin() +
                                  static_cast<ptrdiff_t>(b));
    }
  }
  for (double t : new_ati.InteriorBoundaries()) {
    const auto it = std::lower_bound(next->boundary_times_.begin(),
                                     next->boundary_times_.end(), t);
    const size_t b =
        static_cast<size_t>(it - next->boundary_times_.begin());
    if (it == next->boundary_times_.end() || *it != t) {
      next->boundary_times_.insert(it, t);
      next->boundary_doors_.insert(
          next->boundary_doors_.begin() + static_cast<ptrdiff_t>(b),
          std::vector<DoorId>{door});
    } else {
      std::vector<DoorId>& doors = next->boundary_doors_[b];
      doors.insert(std::lower_bound(doors.begin(), doors.end(), door), door);
    }
  }

  // Carry plan: new interval j carries from old interval i iff their
  // spans are the SAME [lo, hi) — unchanged boundary times are
  // identical doubles, so exact equality is the right test. A matched
  // span contains no checkpoint of either world, hence both the old and
  // the new door ATI are constant across it and one midpoint probe
  // decides whether the open-door set changed there (-> invalidate).
  const std::vector<double>& old_times = current.boundary_times_;
  const std::vector<double>& new_times = next->boundary_times_;
  std::vector<ptrdiff_t> carry_plan(new_times.size() + 1, kNoCarrySource);
  std::vector<size_t> invalidate;
  const AtiRow old_door_ati = current.graph().Ati(door);
  for (size_t j = 0; j <= new_times.size(); ++j) {
    const Bounds span = SpanOf(new_times, j);
    const double mid = (span.lo + span.hi) * 0.5;
    const size_t i = static_cast<size_t>(
        std::upper_bound(old_times.begin(), old_times.end(), mid) -
        old_times.begin());
    const Bounds old_span = SpanOf(old_times, i);
    if (old_span.lo != span.lo || old_span.hi != span.hi) continue;
    carry_plan[j] = static_cast<ptrdiff_t>(i);
    if (old_door_ati.ContainsTimeOfDay(mid) !=
        new_ati.ContainsTimeOfDay(mid)) {
      invalidate.push_back(j);
    }
  }

  if (outcome != nullptr) {
    *outcome = UpdateOutcome();
    outcome->epoch = next->epoch_;
    outcome->intervals_before = old_times.size() + 1;
    outcome->intervals_after = new_times.size() + 1;
    for (double t : old_times) {
      if (!std::binary_search(new_times.begin(), new_times.end(), t)) {
        ++outcome->checkpoints_removed;
      }
    }
    for (double t : new_times) {
      if (!std::binary_search(old_times.begin(), old_times.end(), t)) {
        ++outcome->checkpoints_added;
      }
    }
  }

  Status status = next->FinishBuild(old_store, std::move(carry_plan),
                                    std::move(invalidate));
  if (!status.ok()) return status;

  if (outcome != nullptr && next->router_->snapshot_store() != nullptr) {
    const CacheStatsSnapshot stats = next->router_->snapshot_store()->Stats();
    outcome->snapshots_carried = stats.snapshots_carried;
    outcome->snapshots_rebased = stats.snapshots_rebased;
    outcome->intervals_invalidated = stats.intervals_invalidated;
  }
  return std::shared_ptr<const VersionedGraph>(std::move(next));
}

}  // namespace itspq
