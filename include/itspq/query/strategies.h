#ifndef ITSPQ_QUERY_STRATEGIES_H_
#define ITSPQ_QUERY_STRATEGIES_H_

// The five Router strategies the paper's experiments compare
// (§II-D, §III). They run one search — paper Alg. 1, a door-graph
// Dijkstra with arrival-time projection and partition-visited pruning —
// and differ only in TV_Check, the rule that decides whether a door
// may be passed. All share the Router concurrency contract: the shared
// side is immutable (the SnapshotStore synchronises internally), every
// mutable search structure lives in the caller's QueryContext.
//
// The set is closed: a strategy name resolves to its TvCheck through
// ParseTvCheck (MakeRouter does that for you), and TemporalRouter is
// public so strategies can be constructed directly when the name
// indirection isn't wanted.

#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "itgraph/itgraph.h"
#include "itgraph/snapshot_store.h"
#include "query/path.h"
#include "query/router.h"

namespace itspq {

/// The TV_Check a TemporalRouter applies (paper §II-D).
enum class TvCheck {
  /// "itg-s", ITG/S: every relaxation checks the target door's ATI at
  /// its projected arrival time.
  kSynchronous,
  /// "itg-a", ITG/A: door applicability is read from the reduced graph
  /// of the checkpoint interval the search frontier is in; Graph_Update
  /// re-derives it when the frontier crosses a checkpoint.
  kAsynchronous,
  /// "itg-a+", ITG/A+: as ITG/A, but the reduced graph is chosen per
  /// relaxation from the *arriving* door's interval, closing ITG/A's
  /// frontier-vs-arrival gap (agrees with ITG/S).
  kAsynchronousStrict,
  /// "snap", SNAP: freezes the reduced graph at the query time and runs
  /// a plain Dijkstra on it. No arrival-time projection, so its answers
  /// can walk through doors that close mid-route (the rule-1 violations
  /// quantified in ablation_checkers); the returned paths still carry
  /// projected arrival times so VerifyPath can expose them.
  kSnapshot,
  /// "ntv", NTV: ignores temporal variation entirely, every door always
  /// passable; the conventional indoor distance query the D2D ablation
  /// compares with.
  kNone,
};

/// Every TvCheck, in declaration order.
inline constexpr TvCheck kTvChecks[] = {
    TvCheck::kSynchronous, TvCheck::kAsynchronous,
    TvCheck::kAsynchronousStrict, TvCheck::kSnapshot, TvCheck::kNone};

/// The strategy name of a TV_Check ("itg-s", "itg-a", "itg-a+", "snap",
/// "ntv").
const char* TvCheckName(TvCheck check);

/// The TvCheck whose TvCheckName is `name`; kNotFound for any other
/// name.
StatusOr<TvCheck> ParseTvCheck(const std::string& name);

/// Builds the TemporalRouter for strategy `name` (ParseTvCheck) on
/// `graph` under `options` (snapshot-store budget). Errors with
/// kNotFound for an unknown strategy name.
StatusOr<std::unique_ptr<Router>> MakeRouter(
    const std::string& name, const ItGraph& graph,
    const RouterBuildOptions& options = RouterBuildOptions());

/// Paper Alg. 1 under one TV_Check, answering every QueryKind.
class TemporalRouter : public Router {
 public:
  TemporalRouter(const ItGraph& graph, TvCheck check,
                 const RouterBuildOptions& options = RouterBuildOptions());

  StatusOr<QueryResult> Route(const QueryRequest& request,
                              QueryContext* context) const override;

  CacheStatsSnapshot CacheStats() const override;
  void SetSnapshotBudget(size_t budget_bytes) const override;
  size_t MemoryUsage() const override;
  const SnapshotStore* snapshot_store() const override {
    return snapshot_store_ ? &*snapshot_store_ : nullptr;
  }

 private:
  TvCheck check_;
  /// Shared cross-query reduced-graph store: SNAP's departure masks,
  /// and ITG/A's / ITG/A+'s when a request sets
  /// QueryOptions::use_snapshot_cache. Empty for NTV, which never reads
  /// a reduced graph. Thread-safe.
  std::optional<SnapshotStore> snapshot_store_;
};

}  // namespace itspq

#endif  // ITSPQ_QUERY_STRATEGIES_H_
