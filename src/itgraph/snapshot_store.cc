#include "itgraph/snapshot_store.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace itspq {

namespace {

/// Store ids start at 1 so 0 stays the "no mask built yet" value of
/// SearchScratch::resident_store_id.
std::atomic<uint64_t> g_next_store_id{1};

}  // namespace

void CacheStatsSnapshot::Accumulate(const CacheStatsSnapshot& other) {
  budget_bytes += other.budget_bytes;
  resident_snapshots += other.resident_snapshots;
  resident_bytes += other.resident_bytes;
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  full_builds += other.full_builds;
  delta_builds += other.delta_builds;
  delta_door_touches += other.delta_door_touches;
  snapshots_carried += other.snapshots_carried;
  snapshots_rebased += other.snapshots_rebased;
  intervals_invalidated += other.intervals_invalidated;
}

SnapshotStore::SnapshotStore(const ItGraph& graph, const CheckpointSet& cps,
                             SnapshotStoreOptions options,
                             const SnapshotWarmStart* warm)
    : graph_(&graph),
      cps_(&cps),
      id_(g_next_store_id.fetch_add(1, std::memory_order_relaxed)),
      owned_flips_(warm != nullptr ? BoundaryFlipIndex()
                                   : BoundaryLedger::Build(graph).flips),
      flips_(warm != nullptr ? warm->flip_index : &owned_flips_),
      slots_(cps.NumIntervals()),
      budget_bytes_(options.budget_bytes) {
  if (warm == nullptr || warm->carry_from == nullptr ||
      warm->carry_plan.empty()) {
    return;
  }
  const SnapshotStore& prev = *warm->carry_from;
  // The construction-time carry needs no lock on *this (no other thread
  // can see a half-built store), but resident slots of the previous
  // version are still being served to in-flight readers of the old
  // epoch, so its mutex is taken for the whole scan.
  std::lock_guard<std::mutex> prev_lock(prev.mu_);
  for (size_t j = 0; j < slots_.size() && j < warm->carry_plan.size(); ++j) {
    const ptrdiff_t src = warm->carry_plan[j];
    if (src < 0 || static_cast<size_t>(src) >= prev.slots_.size()) continue;
    const std::shared_ptr<const GraphSnapshot>& old_slot =
        prev.slots_[static_cast<size_t>(src)];
    if (old_slot == nullptr) continue;
    if (std::find(warm->invalidate.begin(), warm->invalidate.end(), j) !=
        warm->invalidate.end()) {
      // The span survived but its open-door set changed: the old mask is
      // stale for the new graph and must be rebuilt on demand.
      ++invalidated_;
      continue;
    }
    std::shared_ptr<const GraphSnapshot> snap;
    if (static_cast<size_t>(src) == j) {
      snap = old_slot;  // same index, same mask: share the slot verbatim
      ++carried_;
    } else {
      // Index shifted under the new checkpoint set; re-issue the mask
      // under the corrected interval_index without any Graph_Update
      // derivation.
      snap = std::make_shared<GraphSnapshot>(
          GraphSnapshot{j, old_slot->open, old_slot->open_door_count});
      ++rebased_;
    }
    slots_[j] = std::move(snap);
    resident_bytes_ += slots_[j]->TotalBytes();
    ++resident_count_;
    lru_.Touch(j);
  }
  // slots_.size() is not a valid interval: protect nothing.
  EvictToFitLocked(slots_.size());
}

std::shared_ptr<const GraphSnapshot> SnapshotStore::Get(
    size_t interval_index, bool* built_now) const {
  if (built_now != nullptr) *built_now = false;
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const GraphSnapshot>& slot = slots_[interval_index];
  if (slot != nullptr) {
    ++hits_;
    lru_.Touch(interval_index);
    return slot;
  }

  ++misses_;
  std::shared_ptr<const GraphSnapshot> snap;
  // Either resident neighbour works; adjacency is symmetric.
  const GraphSnapshot* neighbour = nullptr;
  if (interval_index > 0 && slots_[interval_index - 1] != nullptr) {
    neighbour = slots_[interval_index - 1].get();
  } else if (interval_index + 1 < slots_.size() &&
             slots_[interval_index + 1] != nullptr) {
    neighbour = slots_[interval_index + 1].get();
  }
  if (neighbour != nullptr) {
    size_t touched = 0;
    snap = std::make_shared<GraphSnapshot>(BuildSnapshotDelta(
        *graph_, *cps_, *flips_, *neighbour, interval_index, &touched));
    ++delta_builds_;
    delta_door_touches_ += touched;
  } else {
    snap = std::make_shared<GraphSnapshot>(
        BuildSnapshot(*graph_, *cps_, interval_index));
    ++full_builds_;
  }
  if (built_now != nullptr) *built_now = true;

  slot = snap;
  resident_bytes_ += snap->TotalBytes();
  ++resident_count_;
  lru_.Touch(interval_index);
  EvictToFitLocked(interval_index);
  return snap;
}

void SnapshotStore::EvictToFitLocked(size_t protect) const {
  if (budget_bytes_ == 0) return;  // unlimited
  while (resident_bytes_ > budget_bytes_) {
    size_t victim = 0;
    if (!lru_.Victim(protect, &victim)) break;
    std::shared_ptr<const GraphSnapshot>& slot = slots_[victim];
    resident_bytes_ -= slot->TotalBytes();
    // Readers holding the shared_ptr keep the mask alive; the store
    // just forgets it.
    slot.reset();
    --resident_count_;
    ++evictions_;
    lru_.Forget(victim);
  }
}

size_t SnapshotStore::InvalidateIntervals(
    const std::vector<size_t>& intervals) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (size_t interval : intervals) {
    if (interval >= slots_.size()) continue;
    std::shared_ptr<const GraphSnapshot>& slot = slots_[interval];
    if (slot == nullptr) continue;
    resident_bytes_ -= slot->TotalBytes();
    // Pinned readers keep the mask alive; the store just forgets it.
    slot.reset();
    --resident_count_;
    ++invalidated_;
    ++dropped;
    lru_.Forget(interval);
  }
  return dropped;
}

void SnapshotStore::SetBudget(size_t budget_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  budget_bytes_ = budget_bytes;
  // slots_.size() is not a valid interval: protect nothing.
  EvictToFitLocked(slots_.size());
}

CacheStatsSnapshot SnapshotStore::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStatsSnapshot stats;
  stats.budget_bytes = budget_bytes_;
  stats.resident_snapshots = resident_count_;
  stats.resident_bytes = resident_bytes_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.full_builds = full_builds_;
  stats.delta_builds = delta_builds_;
  stats.delta_door_touches = delta_door_touches_;
  stats.snapshots_carried = carried_;
  stats.snapshots_rebased = rebased_;
  stats.intervals_invalidated = invalidated_;
  return stats;
}

size_t SnapshotStore::MemoryUsage() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.capacity() * sizeof(slots_[0]) + resident_bytes_ +
         owned_flips_.MemoryUsage();
}

}  // namespace itspq
