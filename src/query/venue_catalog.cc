#include "query/venue_catalog.h"

#include <atomic>
#include <utility>

#include "artifact/artifact.h"
#include "update/update_applier.h"

namespace itspq {

VenueCatalog::VenueCatalog(VenueCatalog&& other) noexcept
    : shards_(std::move(other.shards_)),
      residency_engaged_(
          other.residency_engaged_.load(std::memory_order_relaxed)),
      residency_lru_(std::move(other.residency_lru_)),
      residency_budget_bytes_(other.residency_budget_bytes_),
      resident_lazy_bytes_(other.resident_lazy_bytes_),
      shard_evictions_(other.shard_evictions_),
      load_latency_(other.load_latency_) {}

VenueCatalog& VenueCatalog::operator=(VenueCatalog&& other) noexcept {
  if (this != &other) {
    shards_ = std::move(other.shards_);
    residency_engaged_.store(
        other.residency_engaged_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    residency_lru_ = std::move(other.residency_lru_);
    residency_budget_bytes_ = other.residency_budget_bytes_;
    resident_lazy_bytes_ = other.resident_lazy_bytes_;
    shard_evictions_ = other.shard_evictions_;
    load_latency_ = other.load_latency_;
  }
  return *this;
}

StatusOr<std::unique_ptr<VenueCatalog::Shard>> VenueCatalog::NewShard(
    const std::string& strategy, const RouterBuildOptions& options,
    std::string label) const {
  auto check = ParseTvCheck(strategy);
  if (!check.ok()) return check.status();
  auto shard = std::make_unique<Shard>();
  shard->check = *check;
  shard->build_options = options;
  shard->build_options.warm_start = nullptr;
  // Stamp the shard's catalog id into the stored build options before
  // the first build: every router this shard ever constructs — now, on
  // an epoch rebuild after an update, or at lazy load time — inherits
  // the binding, so it can reject requests addressed to another venue.
  const VenueId id = static_cast<VenueId>(shards_.size());
  shard->build_options.bound_venue_id = id;
  shard->label = label.empty() ? "venue-" + std::to_string(id)
                               : std::move(label);
  return shard;
}

StatusOr<VenueId> VenueCatalog::AddVenue(Venue venue,
                                         const std::string& strategy,
                                         std::string label,
                                         const RouterBuildOptions& options) {
  // Assemble the shard off to the side so an unknown strategy or a
  // failed graph build leaves the catalog untouched.
  auto shard = NewShard(strategy, options, std::move(label));
  if (!shard.ok()) return shard.status();
  auto world = VersionedGraph::Build(std::move(venue), (*shard)->check,
                                     (*shard)->build_options);
  if (!world.ok()) return world.status();
  (*shard)->world = *std::move(world);
  shards_.push_back(*std::move(shard));
  return static_cast<VenueId>(shards_.size() - 1);
}

std::shared_ptr<const VersionedGraph> VenueCatalog::world(VenueId id) const {
  return std::atomic_load(&shard(id).world);
}

StatusOr<VenueId> VenueCatalog::AddArtifactShard(
    const std::string& path, const std::string& strategy, std::string label,
    const RouterBuildOptions& options) {
  // Fail registration — catalog untouched — on anything checkable
  // without loading payloads: a bad header/table or an unknown
  // strategy. Payload corruption surfaces at first load.
  Status header = ValidateArtifactHeader(path);
  if (!header.ok()) return header;
  auto shard = NewShard(strategy, options, std::move(label));
  if (!shard.ok()) return shard.status();
  (*shard)->artifact_path = path;
  (*shard)->lazy = true;
  shards_.push_back(*std::move(shard));
  return static_cast<VenueId>(shards_.size() - 1);
}

StatusOr<std::shared_ptr<const VersionedGraph>> VenueCatalog::EnsureResident(
    VenueId id) const {
  const Shard& s = shard(id);
  std::shared_ptr<const VersionedGraph> world = std::atomic_load(&s.world);
  if (world != nullptr) {
    // Hot hit. Touch the LRU order only when a budget is engaged and
    // the shard is actually in the evictable pool.
    if (s.lazy && residency_engaged_.load(std::memory_order_acquire) &&
        !s.unevictable.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(residency_mu_);
      if (residency_lru_.Tracked(static_cast<size_t>(id))) {
        residency_lru_.Touch(static_cast<size_t>(id));
      }
    }
    return world;
  }
  if (!s.lazy) {
    return InternalError("shard " + std::to_string(id) +
                         " is eager but has no world");
  }
  // Cold miss: serialize the load with the shard's writers so exactly
  // one thread pays the load and everyone else pins its result.
  std::lock_guard<std::mutex> lock(s.update_mu);
  world = std::atomic_load(&s.world);
  if (world != nullptr) return world;
  return LoadShardLocked(s, id);
}

StatusOr<std::shared_ptr<const VersionedGraph>> VenueCatalog::LoadShardLocked(
    const Shard& s, VenueId id) const {
  Timer timer;
  auto loaded = LoadVenueArtifact(s.artifact_path);
  if (!loaded.ok()) return loaded.status();
  auto built =
      BuildWorldFromArtifact(*std::move(loaded), s.check, s.build_options);
  if (!built.ok()) return built.status();
  std::shared_ptr<const VersionedGraph> world = *std::move(built);

  std::atomic_store(&s.world, world);
  s.loads.fetch_add(1, std::memory_order_relaxed);
  const double micros = timer.ElapsedMicros();
  {
    std::lock_guard<std::mutex> lock(residency_mu_);
    load_latency_.Record(micros);
    // Pinned shards (first update in flight) serve outside the budget;
    // a racing SetResidencyBudget may have accounted us already.
    if (!s.unevictable.load(std::memory_order_relaxed) &&
        s.resident_bytes == 0) {
      s.resident_bytes = world->MemoryUsage();
      resident_lazy_bytes_ += s.resident_bytes;
      residency_lru_.Touch(static_cast<size_t>(id));
      EvictToFitLocked(static_cast<size_t>(id));
    }
  }
  return world;
}

void VenueCatalog::PinResidentLocked(const Shard& s, VenueId id) const {
  if (!s.lazy || s.unevictable.load(std::memory_order_relaxed)) return;
  s.unevictable.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(residency_mu_);
  // Untrack without dropping the world: the published pointer stays.
  residency_lru_.Forget(static_cast<size_t>(id));
  resident_lazy_bytes_ -= s.resident_bytes;
  s.resident_bytes = 0;
}

void VenueCatalog::EvictToFitLocked(size_t protect) const {
  if (residency_budget_bytes_ == 0) return;  // unlimited
  while (resident_lazy_bytes_ > residency_budget_bytes_) {
    size_t victim = 0;
    if (!residency_lru_.Victim(protect, &victim)) break;
    const Shard& v = *shards_[victim];
    residency_lru_.Forget(victim);
    resident_lazy_bytes_ -= v.resident_bytes;
    v.resident_bytes = 0;
    // Readers that pinned this world finish on it; the slot going null
    // is what makes the next query reload.
    std::atomic_store(&v.world, std::shared_ptr<const VersionedGraph>());
    ++shard_evictions_;
  }
}

Status VenueCatalog::SetResidencyBudget(size_t budget_bytes,
                                        const std::string& policy) {
  if (policy != "lru") {
    return NotFoundError("unknown residency policy '" + policy +
                         "' (known: lru)");
  }
  std::lock_guard<std::mutex> lock(residency_mu_);
  residency_lru_ = LruOrder();
  residency_budget_bytes_ = budget_bytes;
  resident_lazy_bytes_ = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    s.resident_bytes = 0;
    if (!s.lazy || s.unevictable.load(std::memory_order_relaxed)) continue;
    const std::shared_ptr<const VersionedGraph> world =
        std::atomic_load(&s.world);
    if (world == nullptr) continue;
    s.resident_bytes = world->MemoryUsage();
    resident_lazy_bytes_ += s.resident_bytes;
    residency_lru_.Touch(i);
  }
  EvictToFitLocked(/*protect=*/shards_.size());
  residency_engaged_.store(true, std::memory_order_release);
  return Status::Ok();
}

StatusOr<UpdateOutcome> VenueCatalog::ApplyAtiUpdate(const AtiUpdate& update) {
  if (!Contains(update.venue_id)) {
    return NotFoundError("ApplyAtiUpdate: venue_id " +
                         std::to_string(update.venue_id) + " not in catalog (" +
                         std::to_string(shards_.size()) + " venues)");
  }
  Shard& s = *shards_[static_cast<size_t>(update.venue_id)];
  // One writer per shard at a time; readers keep loading the published
  // pointer throughout.
  std::lock_guard<std::mutex> lock(s.update_mu);
  // An updated shard diverges from its artifact, so pin it out of the
  // evictable pool BEFORE deriving the next epoch — the evictor must
  // never drop a world mid-transition.
  PinResidentLocked(s, update.venue_id);
  std::shared_ptr<const VersionedGraph> current = std::atomic_load(&s.world);
  if (current == nullptr) {
    // Updating a cold lazy shard: load it first, then apply on top.
    auto loaded = LoadShardLocked(s, update.venue_id);
    if (!loaded.ok()) {
      s.updates_rejected.fetch_add(1, std::memory_order_relaxed);
      return loaded.status();
    }
    current = *std::move(loaded);
  }
  UpdateOutcome outcome;
  auto next = UpdateApplier::Apply(*current, update, &outcome);
  if (!next.ok()) {
    s.updates_rejected.fetch_add(1, std::memory_order_relaxed);
    return next.status();
  }
  std::atomic_store(&s.world,
                    std::shared_ptr<const VersionedGraph>(*std::move(next)));
  s.updates_applied.fetch_add(1, std::memory_order_relaxed);
  s.update_snapshots_carried.fetch_add(outcome.snapshots_carried,
                                       std::memory_order_relaxed);
  s.update_snapshots_rebased.fetch_add(outcome.snapshots_rebased,
                                       std::memory_order_relaxed);
  s.update_intervals_invalidated.fetch_add(outcome.intervals_invalidated,
                                           std::memory_order_relaxed);
  return outcome;
}

void VenueCatalog::ApportionSnapshotBudget(size_t total_bytes) {
  if (shards_.empty()) return;
  // A non-zero total must stay a binding budget after the split: 0
  // means "unlimited" to the stores, so floor each slice at one byte
  // (each store keeps one snapshot resident regardless).
  size_t per_shard = total_bytes / shards_.size();
  if (total_bytes != 0 && per_shard == 0) per_shard = 1;
  for (auto& shard : shards_) {
    // Serialize against writers: SetSnapshotBudget hits the CURRENT
    // version's store, and recording the slice in build_options lets
    // the next epoch inherit it even if the store had no reads yet —
    // including the epoch a cold lazy shard will build at load time.
    std::lock_guard<std::mutex> lock(shard->update_mu);
    shard->build_options.snapshot_cache.budget_bytes = per_shard;
    const std::shared_ptr<const VersionedGraph> world =
        std::atomic_load(&shard->world);
    if (world != nullptr) world->router().SetSnapshotBudget(per_shard);
  }
}

CatalogStats VenueCatalog::Stats() const {
  CatalogStats report;
  report.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    const std::shared_ptr<const VersionedGraph> world =
        std::atomic_load(&shard.world);
    ShardStats s;
    s.venue_id = static_cast<VenueId>(i);
    s.label = shard.label;
    s.strategy = TvCheckName(shard.check);
    s.queries_served = shard.queries_served.load(std::memory_order_relaxed);
    s.routes_found = shard.routes_found.load(std::memory_order_relaxed);
    s.routes_not_found =
        shard.routes_not_found.load(std::memory_order_relaxed);
    s.route_errors = shard.route_errors.load(std::memory_order_relaxed);
    s.updates_applied = shard.updates_applied.load(std::memory_order_relaxed);
    s.updates_rejected =
        shard.updates_rejected.load(std::memory_order_relaxed);
    s.update_snapshots_carried =
        shard.update_snapshots_carried.load(std::memory_order_relaxed);
    s.update_snapshots_rebased =
        shard.update_snapshots_rebased.load(std::memory_order_relaxed);
    s.update_intervals_invalidated =
        shard.update_intervals_invalidated.load(std::memory_order_relaxed);
    s.lazy = shard.lazy;
    s.resident = world != nullptr;
    s.loads = shard.loads.load(std::memory_order_relaxed);
    if (world != nullptr) {
      s.epoch = world->epoch();
      s.cache = world->router().CacheStats();
      s.memory_bytes = world->MemoryUsage();
    }

    if (s.lazy) ++report.lazy_shards;
    if (s.resident) ++report.resident_shards;
    report.total_loads += s.loads;
    report.total_queries += s.queries_served;
    report.total_found += s.routes_found;
    report.total_not_found += s.routes_not_found;
    report.total_errors += s.route_errors;
    report.total_memory_bytes += s.memory_bytes;
    report.total_updates_applied += s.updates_applied;
    report.total_updates_rejected += s.updates_rejected;
    report.total_update_snapshots_carried += s.update_snapshots_carried;
    report.total_update_intervals_invalidated +=
        s.update_intervals_invalidated;
    report.total_cache.Accumulate(s.cache);
    report.shards.push_back(std::move(s));
  }
  {
    std::lock_guard<std::mutex> lock(residency_mu_);
    report.total_shard_evictions = shard_evictions_;
    report.residency_budget_bytes = residency_budget_bytes_;
    report.resident_lazy_bytes = resident_lazy_bytes_;
    report.load_latency = load_latency_;
  }
  return report;
}

}  // namespace itspq
