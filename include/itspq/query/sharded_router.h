#ifndef ITSPQ_QUERY_SHARDED_ROUTER_H_
#define ITSPQ_QUERY_SHARDED_ROUTER_H_

// The composite Router over a VenueCatalog. Route() dispatches each
// request to the shard named by QueryRequest::venue_id and bumps that
// shard's traffic counters. One QueryContext per thread may hop shards
// from one request to the next (per-query scratch is re-sized per
// graph, so context hopping is safe — locked in by
// tests/sharding_test.cc).
//
// ShardedRouter is itself a Router, so the serving frontend can speak
// one interface whether it fronts one venue or a whole fleet. It is a
// composite: has_graph() is false, and per-request failures (unknown
// venue_id, endpoint outside the shard's venue) come back as that
// request's Status, never as process-wide state.

#include <cstddef>

#include "common/status.h"
#include "query/router.h"
#include "query/venue_catalog.h"

namespace itspq {

class ShardedRouter : public Router {
 public:
  /// `catalog` must outlive the router and must not gain venues while
  /// queries are in flight.
  explicit ShardedRouter(const VenueCatalog& catalog);

  /// Routes on the shard `request.venue_id` names; kNotFound when the
  /// catalog has no such venue.
  StatusOr<QueryResult> Route(const QueryRequest& request,
                              QueryContext* context) const override;

  const VenueCatalog& catalog() const { return *catalog_; }

  /// Sums the counters of all shards.
  CacheStatsSnapshot CacheStats() const override;
  size_t MemoryUsage() const override;

 private:
  const VenueCatalog* catalog_;
};

}  // namespace itspq

#endif  // ITSPQ_QUERY_SHARDED_ROUTER_H_
