#include "gen/query_gen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "itgraph/door_search.h"
#include "query/strategies.h"

namespace itspq {

namespace {

// Uniform point strictly inside a partition (10% inset keeps points off
// shared walls, where they would belong to several partitions).
IndoorPoint InteriorPoint(const Partition& partition, Rng& rng) {
  const Rect& r = partition.rect;
  return IndoorPoint{
      Point2d{rng.UniformDouble(r.min_x + 0.1 * r.width(),
                                r.max_x - 0.1 * r.width()),
              rng.UniformDouble(r.min_y + 0.1 * r.height(),
                                r.max_y - 0.1 * r.height())},
      partition.floor};
}

}  // namespace

StatusOr<std::vector<QueryInstance>> GenerateQueries(
    const ItGraph& graph, const QueryGenConfig& config) {
  if (config.num_pairs < 1 || !(config.s2t_distance > 0) ||
      !(config.tolerance >= 0) ||
      !std::isfinite(config.s2t_distance + config.tolerance)) {
    return InvalidArgumentError("query gen config: bad band or pair count");
  }
  const Venue& venue = graph.venue();
  if (venue.NumPartitions() == 0) {
    return FailedPreconditionError("query gen: empty venue");
  }

  // Static distances from each source: NTV's kernel (every door open)
  // sweeping with a budget no walk reaches settles every reachable door.
  // The budget is the largest finite one, as Route rejects infinity.
  auto ntv = MakeRouter("ntv", graph);
  if (!ntv.ok()) return ntv.status();
  QueryRequest sweep;
  sweep.kind = QueryKind::kReachability;
  sweep.budget_seconds = std::numeric_limits<double>::max();
  QueryContext context;
  std::vector<double> from_source(graph.NumDoors(), internal::kInfDistance);

  Rng rng(config.seed);
  std::vector<QueryInstance> queries;
  const double lo = config.s2t_distance - config.tolerance;
  const double hi = config.s2t_distance + config.tolerance;

  for (int attempt = 0;
       attempt < config.max_source_attempts &&
       static_cast<int>(queries.size()) < config.num_pairs;
       ++attempt) {
    const PartitionId sp =
        static_cast<PartitionId>(rng.UniformIndex(venue.NumPartitions()));
    const IndoorPoint ps = InteriorPoint(venue.partition(sp), rng);
    auto src = internal::AttachPoint(venue, ps);
    if (!src.ok()) continue;
    sweep.source = ps;
    auto reached = (*ntv)->Route(sweep, &context);
    if (!reached.ok()) return reached.status();
    for (const ReachableDoor& door : reached->reachable) {
      from_source[static_cast<size_t>(door.door)] = door.distance_m;
    }

    for (int probe = 0; probe < config.targets_per_source &&
                        static_cast<int>(queries.size()) < config.num_pairs;
         ++probe) {
      const PartitionId tp =
          static_cast<PartitionId>(rng.UniformIndex(venue.NumPartitions()));
      const Partition& target_partition = venue.partition(tp);
      const IndoorPoint pt = InteriorPoint(target_partition, rng);
      auto dst = internal::AttachPoint(venue, pt);
      if (!dst.ok()) continue;

      const auto [best, entry_door] = internal::BestCompletion(
          *src, *dst, ps.p, pt.p,
          [&](DoorId d) { return from_source[static_cast<size_t>(d)]; });
      (void)entry_door;
      if (best >= lo && best <= hi) {
        queries.push_back(QueryInstance{ps, pt, best});
      }
    }
    for (const ReachableDoor& door : reached->reachable) {
      from_source[static_cast<size_t>(door.door)] = internal::kInfDistance;
    }
  }

  if (static_cast<int>(queries.size()) < config.num_pairs) {
    return ResourceExhaustedError(
        "could only generate " + std::to_string(queries.size()) + " of " +
        std::to_string(config.num_pairs) + " query pairs in the [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "] m band");
  }
  return queries;
}

StatusOr<std::vector<QueryRequest>> GenerateFamilyQueries(
    const ItGraph& graph, const FamilyGenConfig& config) {
  if (config.kind == QueryKind::kPointToPoint) {
    return InvalidArgumentError(
        "family gen: use GenerateQueries for point-to-point pairs");
  }
  if (config.num_queries < 1) {
    return InvalidArgumentError("family gen: num_queries must be >= 1");
  }
  if (!(config.min_departure_seconds <= config.max_departure_seconds)) {
    return InvalidArgumentError("family gen: bad departure window");
  }
  const Venue& venue = graph.venue();
  if (venue.NumPartitions() == 0) {
    return FailedPreconditionError("family gen: empty venue");
  }
  switch (config.kind) {
    case QueryKind::kReachability:
      if (!(config.min_budget_seconds >= 0) ||
          !(config.min_budget_seconds <= config.max_budget_seconds)) {
        return InvalidArgumentError("family gen: bad budget range");
      }
      break;
    case QueryKind::kNearestFacility:
      if (config.min_k < 1 || config.min_k > config.max_k ||
          config.num_facilities < 1) {
        return InvalidArgumentError("family gen: bad k/facility config");
      }
      if (static_cast<size_t>(config.num_facilities) > graph.NumDoors()) {
        return FailedPreconditionError(
            "family gen: venue has " + std::to_string(graph.NumDoors()) +
            " doors, fewer than num_facilities = " +
            std::to_string(config.num_facilities));
      }
      break;
    case QueryKind::kMultiStop:
      if (config.num_waypoints < 1) {
        return InvalidArgumentError("family gen: num_waypoints must be >= 1");
      }
      break;
    default:
      return InvalidArgumentError("family gen: unknown query kind");
  }

  Rng rng(config.seed);
  auto random_point = [&] {
    const PartitionId p =
        static_cast<PartitionId>(rng.UniformIndex(venue.NumPartitions()));
    return InteriorPoint(venue.partition(p), rng);
  };

  std::vector<QueryRequest> requests;
  requests.reserve(static_cast<size_t>(config.num_queries));
  for (int i = 0; i < config.num_queries; ++i) {
    QueryRequest request;
    request.kind = config.kind;
    request.source = random_point();
    request.departure = Instant(rng.UniformDouble(
        config.min_departure_seconds, config.max_departure_seconds));
    switch (config.kind) {
      case QueryKind::kReachability:
        request.budget_seconds = rng.UniformDouble(config.min_budget_seconds,
                                                   config.max_budget_seconds);
        break;
      case QueryKind::kNearestFacility: {
        request.k = config.min_k + static_cast<uint32_t>(rng.UniformIndex(
                                       config.max_k - config.min_k + 1));
        // Distinct doors via rejection — facility sets are tiny next to
        // a venue's door count, so repeats are rare.
        while (request.facilities.size() <
               static_cast<size_t>(config.num_facilities)) {
          const DoorId door =
              static_cast<DoorId>(rng.UniformIndex(graph.NumDoors()));
          if (std::find(request.facilities.begin(), request.facilities.end(),
                        door) == request.facilities.end()) {
            request.facilities.push_back(door);
          }
        }
        break;
      }
      case QueryKind::kMultiStop:
        for (int s = 0; s < config.num_waypoints; ++s) {
          request.waypoints.push_back(random_point());
        }
        request.target = random_point();
        break;
      default:
        break;
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace itspq
