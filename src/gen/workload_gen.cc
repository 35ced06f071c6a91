#include "gen/workload_gen.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "gen/query_gen.h"

namespace itspq {

StatusOr<std::vector<Venue>> GenerateVenueFleet(const FleetConfig& config) {
  if (config.num_venues < 1) {
    return InvalidArgumentError("fleet config: num_venues must be positive");
  }
  if (config.min_floors < 1 || config.max_floors < config.min_floors ||
      config.min_shop_rows < 1 ||
      config.max_shop_rows < config.min_shop_rows ||
      config.min_checkpoints < 2 ||
      config.max_checkpoints < config.min_checkpoints) {
    return InvalidArgumentError("fleet config: malformed [min, max] range");
  }

  Rng rng(config.seed);
  std::vector<Venue> fleet;
  fleet.reserve(static_cast<size_t>(config.num_venues));
  for (int i = 0; i < config.num_venues; ++i) {
    MallConfig mall = config.base_mall;
    mall.floors =
        static_cast<int>(rng.UniformInt(config.min_floors, config.max_floors));
    mall.shop_rows = static_cast<int>(
        rng.UniformInt(config.min_shop_rows, config.max_shop_rows));
    mall.seed = rng.Next();
    auto shell = GenerateMall(mall);
    if (!shell.ok()) return shell.status();

    AtiGenConfig ati = config.base_ati;
    ati.checkpoint_count = static_cast<int>(
        rng.UniformInt(config.min_checkpoints, config.max_checkpoints));
    ati.seed = rng.Next();
    auto varied = AssignTemporalVariations(*shell, ati);
    if (!varied.ok()) return varied.status();
    fleet.push_back(*std::move(varied));
  }
  return fleet;
}

StatusOr<std::vector<QueryRequest>> GenerateMultiVenueWorkload(
    const VenueCatalog& catalog, const MultiVenueWorkloadConfig& config) {
  if (catalog.NumVenues() == 0) {
    return InvalidArgumentError("workload config: catalog has no venues");
  }
  if (config.num_requests < 0 || config.pairs_per_venue < 1 ||
      !(config.zipf_exponent >= 0) || config.hours.empty()) {
    return InvalidArgumentError("workload config: malformed parameters");
  }

  const size_t venues = catalog.NumVenues();
  Rng rng(config.seed);

  // Per-venue endpoint pools.
  std::vector<std::vector<QueryInstance>> pools;
  pools.reserve(venues);
  for (size_t v = 0; v < venues; ++v) {
    QueryGenConfig qc;
    qc.s2t_distance = config.s2t_distance;
    qc.tolerance = config.tolerance;
    qc.num_pairs = config.pairs_per_venue;
    qc.seed = rng.Next();
    auto pool = GenerateQueries(catalog.graph(static_cast<VenueId>(v)), qc);
    if (!pool.ok()) {
      return Status(pool.status().code(),
                    "venue " + std::to_string(v) + ": " +
                        pool.status().message());
    }
    pools.push_back(*std::move(pool));
  }

  // Zipf CDF over venues in catalog order (shard 0 most popular).
  std::vector<double> cdf(venues);
  double mass = 0;
  for (size_t v = 0; v < venues; ++v) {
    mass += 1.0 / std::pow(static_cast<double>(v + 1), config.zipf_exponent);
    cdf[v] = mass;
  }

  std::vector<QueryRequest> requests;
  requests.reserve(static_cast<size_t>(config.num_requests));
  for (int i = 0; i < config.num_requests; ++i) {
    const double u = rng.UniformDouble(0, mass);
    size_t v = 0;
    while (v + 1 < venues && cdf[v] <= u) ++v;
    const QueryInstance& pair = pools[v][rng.UniformIndex(pools[v].size())];
    const int hour = config.hours[rng.UniformIndex(config.hours.size())];
    const double departure =
        hour * 3600.0 + rng.UniformDouble(0, 3600.0);

    QueryRequest request;
    request.source = pair.ps;
    request.target = pair.pt;
    request.departure = Instant(departure);
    request.options = config.options;
    request.venue_id = static_cast<VenueId>(v);
    requests.push_back(request);
  }
  return requests;
}

StatusOr<std::vector<double>> GenerateOpenLoopArrivals(
    int num_requests, const ArrivalScheduleConfig& config) {
  if (num_requests < 0) {
    return InvalidArgumentError(
        "arrival schedule: num_requests must be non-negative");
  }
  if (!(config.offered_qps > 0) || !std::isfinite(config.offered_qps)) {
    return InvalidArgumentError(
        "arrival schedule: offered_qps must be positive and finite");
  }

  Rng rng(config.seed);
  std::vector<double> offsets;
  offsets.reserve(static_cast<size_t>(num_requests));
  double t = 0;
  for (int i = 0; i < num_requests; ++i) {
    // Exponential inter-arrival gap: -ln(1 - u) / rate, with u in
    // [0, 1) so the log argument never hits zero.
    const double u = rng.UniformDouble(0, 1);
    t += -std::log1p(-u) / config.offered_qps;
    offsets.push_back(t);
  }
  return offsets;
}

StatusOr<std::vector<TimedAtiUpdate>> GenerateUpdateStream(
    const VenueCatalog& catalog, const UpdateStreamConfig& config) {
  if (catalog.NumVenues() == 0) {
    return InvalidArgumentError("update stream: catalog has no venues");
  }
  if (config.num_updates < 0) {
    return InvalidArgumentError(
        "update stream: num_updates must be non-negative");
  }
  if (!(config.offered_ups > 0) || !std::isfinite(config.offered_ups)) {
    return InvalidArgumentError(
        "update stream: offered_ups must be positive and finite");
  }
  if (!(config.zipf_exponent >= 0) || !(config.wrap_fraction >= 0) ||
      !(config.always_open_fraction >= 0) ||
      !(config.wrap_fraction + config.always_open_fraction <= 1)) {
    return InvalidArgumentError(
        "update stream: malformed skew or shape fractions");
  }
  if (!(config.min_open_hour >= 0) ||
      !(config.min_open_hour <= config.max_open_hour) ||
      !(config.max_open_hour < config.min_close_hour) ||
      !(config.min_close_hour <= config.max_close_hour) ||
      !(config.max_close_hour < 24)) {
    return InvalidArgumentError(
        "update stream: hour windows must satisfy 0 <= open < close < 24");
  }

  const size_t venues = catalog.NumVenues();
  Rng rng(config.seed);

  // Zipf CDF over venues in catalog order (shard 0 most churny).
  std::vector<double> cdf(venues);
  double mass = 0;
  for (size_t v = 0; v < venues; ++v) {
    mass += 1.0 / std::pow(static_cast<double>(v + 1), config.zipf_exponent);
    cdf[v] = mass;
  }

  std::vector<TimedAtiUpdate> stream;
  stream.reserve(static_cast<size_t>(config.num_updates));
  double t = 0;
  for (int i = 0; i < config.num_updates; ++i) {
    // Poisson arrivals, same form as GenerateOpenLoopArrivals.
    const double gap_u = rng.UniformDouble(0, 1);
    t += -std::log1p(-gap_u) / config.offered_ups;

    const double venue_u = rng.UniformDouble(0, mass);
    size_t v = 0;
    while (v + 1 < venues && cdf[v] <= venue_u) ++v;
    const Venue& venue = catalog.venue(static_cast<VenueId>(v));

    TimedAtiUpdate timed;
    timed.offset_seconds = t;
    timed.update.venue_id = static_cast<VenueId>(v);
    timed.update.door_id =
        static_cast<DoorId>(rng.UniformIndex(venue.NumDoors()));

    const double open_s =
        3600.0 *
        rng.UniformDouble(config.min_open_hour, config.max_open_hour);
    const double close_s =
        3600.0 *
        rng.UniformDouble(config.min_close_hour, config.max_close_hour);
    const double shape_u = rng.UniformDouble(0, 1);
    if (shape_u < config.always_open_fraction) {
      // Clear the door's variation entirely (empty = always open).
    } else if (shape_u < config.always_open_fraction + config.wrap_fraction) {
      // Night window wrapping midnight: [close, open) next day —
      // AtiSet::Create splits it at the day boundary.
      timed.update.intervals.push_back(TimeInterval{close_s, open_s});
    } else {
      timed.update.intervals.push_back(TimeInterval{open_s, close_s});
    }
    stream.push_back(std::move(timed));
  }
  return stream;
}

}  // namespace itspq
