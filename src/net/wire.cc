#include "net/wire.h"

#include <cmath>
#include <cstring>
#include <utility>

namespace itspq {
namespace net {
namespace {

// ---------------------------------------------------------------------
// Little-endian primitive writers over a growing string buffer.

class WireWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutRaw(&v, sizeof v); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof v); }
  void PutI32(int32_t v) { PutRaw(&v, sizeof v); }
  void PutF64(double v) { PutRaw(&v, sizeof v); }

  void PutString(std::string_view s) {
    if (s.size() > kMaxWireString) s = s.substr(0, kMaxWireString);
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  /// Seals the frame: prefixes the accumulated payload with its length.
  std::string Frame() && {
    const uint32_t len = static_cast<uint32_t>(buf_.size());
    std::string frame;
    frame.reserve(sizeof len + buf_.size());
    frame.append(reinterpret_cast<const char*>(&len), sizeof len);
    frame += buf_;
    return frame;
  }

 private:
  void PutRaw(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }

  std::string buf_;
};

// ---------------------------------------------------------------------
// Bounds-checked little-endian readers over a frame body. Every getter
// returns false once the body runs short; the caller converts that into
// one precise truncation Status so a hostile frame can never read past
// the buffer.

class WireReader {
 public:
  explicit WireReader(std::string_view body) : rest_(body) {}

  bool GetU8(uint8_t* v) { return GetRaw(v, sizeof *v); }
  bool GetU32(uint32_t* v) { return GetRaw(v, sizeof *v); }
  bool GetU64(uint64_t* v) { return GetRaw(v, sizeof *v); }
  bool GetI32(int32_t* v) { return GetRaw(v, sizeof *v); }
  bool GetF64(double* v) { return GetRaw(v, sizeof *v); }

  /// False on a truncated count, a count beyond kMaxWireString, or
  /// fewer bytes remaining than the count claims.
  bool GetString(std::string* s) {
    uint32_t n = 0;
    if (!GetU32(&n)) return false;
    if (n > kMaxWireString || n > rest_.size()) return false;
    s->assign(rest_.data(), n);
    rest_.remove_prefix(n);
    return true;
  }

  bool Empty() const { return rest_.empty(); }
  size_t Remaining() const { return rest_.size(); }

 private:
  bool GetRaw(void* v, size_t n) {
    if (rest_.size() < n) return false;
    std::memcpy(v, rest_.data(), n);
    rest_.remove_prefix(n);
    return true;
  }

  std::string_view rest_;
};

Status Truncated(const char* what) {
  return InvalidArgumentError(std::string("truncated frame: ") + what);
}

/// Decoded frames must consume their body exactly — trailing bytes mean
/// the peer speaks a different (newer? hostile?) layout, and silently
/// ignoring them would mask the skew.
Status CheckDrained(const WireReader& reader, const char* what) {
  if (reader.Empty()) return Status::Ok();
  return InvalidArgumentError(std::string(what) + ": " +
                              std::to_string(reader.Remaining()) +
                              " trailing bytes after body");
}

}  // namespace

QueryRequest ToQueryRequest(const WireQuery& wire) {
  QueryRequest request;
  request.venue_id = wire.venue_id;
  request.source.p.x = wire.source_x;
  request.source.p.y = wire.source_y;
  request.source.floor = wire.source_floor;
  request.target.p.x = wire.target_x;
  request.target.p.y = wire.target_y;
  request.target.floor = wire.target_floor;
  request.departure = Instant(wire.departure_seconds);
  request.options.use_snapshot_cache = wire.use_snapshot_cache;
  request.options.partition_visited_pruning = wire.partition_visited_pruning;
  request.kind = wire.kind;
  request.budget_seconds = wire.budget_seconds;
  request.k = wire.k;
  request.facilities = wire.facilities;
  request.waypoints = wire.waypoints;
  return request;
}

WireQuery FromQueryRequest(const QueryRequest& request, uint64_t request_id,
                           QosClass qos, double deadline_micros) {
  WireQuery wire;
  wire.request_id = request_id;
  wire.venue_id = request.venue_id;
  wire.qos = qos;
  wire.deadline_micros = deadline_micros;
  wire.use_snapshot_cache = request.options.use_snapshot_cache;
  wire.partition_visited_pruning = request.options.partition_visited_pruning;
  wire.source_x = request.source.p.x;
  wire.source_y = request.source.p.y;
  wire.source_floor = request.source.floor;
  wire.target_x = request.target.p.x;
  wire.target_y = request.target.p.y;
  wire.target_floor = request.target.floor;
  wire.departure_seconds = request.departure.seconds();
  wire.kind = request.kind;
  wire.budget_seconds = request.budget_seconds;
  wire.k = request.k;
  wire.facilities = request.facilities;
  wire.waypoints = request.waypoints;
  return wire;
}

WireReply MakeReply(uint64_t request_id, const StatusOr<QueryResult>& result) {
  WireReply reply;
  reply.request_id = request_id;
  if (!result.ok()) {
    reply.code = result.status().code();
    reply.message = result.status().message();
    return reply;
  }
  reply.code = StatusCode::kOk;
  reply.found = result->found;
  if (result->found) {
    reply.length_m = result->path.length_m();
    reply.departure_seconds = result->path.departure_seconds();
    reply.steps = result->path.steps();
  }
  // Family payloads: empty for point-to-point answers (and cost
  // nothing there); a kTemporalReply frame carries them verbatim. The
  // legs of a found == false multi-stop answer (the routed prefix) are
  // included deliberately — the contract keeps the prefix.
  reply.reachable = result->reachable;
  reply.legs.reserve(result->legs.size());
  for (const Path& leg : result->legs) {
    WireLeg wire_leg;
    wire_leg.length_m = leg.length_m();
    wire_leg.departure_seconds = leg.departure_seconds();
    wire_leg.steps = leg.steps();
    reply.legs.push_back(std::move(wire_leg));
  }
  return reply;
}

WireStats MakeWireStats(const ServiceStats& stats) {
  WireStats wire;
  wire.submitted = stats.submitted;
  wire.served = stats.served;
  wire.shed = stats.shed_displaced + stats.shed_infeasible;
  wire.rejected = stats.rejected_queue_full + stats.rejected_expired +
                  stats.rejected_invalid + stats.rejected_shutdown;
  wire.timed_out = stats.timed_out_in_queue + stats.timed_out_in_flight;
  for (size_t i = 0; i < kNumQosClasses; ++i) {
    wire.served_by_class[i] = stats.served_by_class[i];
    wire.shed_by_class[i] = stats.shed_by_class[i];
  }
  wire.p50_micros = stats.latency.P50();
  wire.p99_micros = stats.latency.P99();
  return wire;
}

namespace {

void PutQueryCommon(WireWriter& w, const WireQuery& query) {
  w.PutU64(query.request_id);
  w.PutI32(query.venue_id);
  w.PutU8(static_cast<uint8_t>(query.qos));
  uint8_t flags = 0;
  if (query.use_snapshot_cache) flags |= 1u;
  if (query.partition_visited_pruning) flags |= 2u;
  w.PutU8(flags);
  w.PutF64(query.deadline_micros);
  w.PutF64(query.source_x);
  w.PutF64(query.source_y);
  w.PutI32(query.source_floor);
  w.PutF64(query.target_x);
  w.PutF64(query.target_y);
  w.PutI32(query.target_floor);
  w.PutF64(query.departure_seconds);
}

Status GetQueryCommon(WireReader& r, WireQuery* query) {
  uint8_t qos_byte = 0;
  uint8_t flags = 0;
  if (!r.GetU64(&query->request_id)) return Truncated("query request_id");
  if (!r.GetI32(&query->venue_id)) return Truncated("query venue_id");
  if (!r.GetU8(&qos_byte)) return Truncated("query qos");
  if (qos_byte >= kNumQosClasses) {
    return InvalidArgumentError("unknown QoS class byte " +
                                std::to_string(qos_byte));
  }
  query->qos = static_cast<QosClass>(qos_byte);
  if (!r.GetU8(&flags)) return Truncated("query flags");
  query->use_snapshot_cache = (flags & 1u) != 0;
  query->partition_visited_pruning = (flags & 2u) != 0;
  if (!r.GetF64(&query->deadline_micros)) return Truncated("query deadline");
  // NaN would read as "no deadline" in every admission comparison and a
  // negative budget is meaningless; both are peer bugs, stopped at the
  // edge before they can reach Submit.
  if (std::isnan(query->deadline_micros) || query->deadline_micros < 0) {
    return InvalidArgumentError("query deadline_micros is NaN or negative");
  }
  if (!r.GetF64(&query->source_x) || !r.GetF64(&query->source_y) ||
      !r.GetI32(&query->source_floor)) {
    return Truncated("query source point");
  }
  if (!r.GetF64(&query->target_x) || !r.GetF64(&query->target_y) ||
      !r.GetI32(&query->target_floor)) {
    return Truncated("query target point");
  }
  if (!std::isfinite(query->source_x) || !std::isfinite(query->source_y) ||
      !std::isfinite(query->target_x) || !std::isfinite(query->target_y)) {
    return InvalidArgumentError("query endpoint coordinates are not finite");
  }
  if (!r.GetF64(&query->departure_seconds)) return Truncated("query departure");
  // A NaN/inf departure is the same class of peer bug as a NaN
  // deadline: it would sail through WrapTimeOfDay into the search and
  // come back as a silent found == false. Stopped at the edge so the
  // wire fails exactly like a local Route() call (kInvalidArgument).
  if (!std::isfinite(query->departure_seconds)) {
    return InvalidArgumentError("query departure_seconds is not finite");
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeQueryFrame(const WireQuery& query) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kQuery));
  PutQueryCommon(w, query);
  return std::move(w).Frame();
}

Status DecodeQueryBody(std::string_view body, WireQuery* query) {
  WireReader r(body);
  Status common = GetQueryCommon(r, query);
  if (!common.ok()) return common;
  return CheckDrained(r, "query");
}

std::string EncodeTemporalQueryFrame(const WireQuery& query) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kTemporalQuery));
  PutQueryCommon(w, query);
  w.PutU8(static_cast<uint8_t>(query.kind));
  w.PutF64(query.budget_seconds);
  w.PutU32(query.k);
  w.PutU32(static_cast<uint32_t>(query.facilities.size()));
  for (DoorId door : query.facilities) w.PutI32(door);
  w.PutU32(static_cast<uint32_t>(query.waypoints.size()));
  for (const IndoorPoint& p : query.waypoints) {
    w.PutF64(p.p.x);
    w.PutF64(p.p.y);
    w.PutI32(p.floor);
  }
  return std::move(w).Frame();
}

Status DecodeTemporalQueryBody(std::string_view body, WireQuery* query) {
  WireReader r(body);
  Status common = GetQueryCommon(r, query);
  if (!common.ok()) return common;
  uint8_t kind_byte = 0;
  if (!r.GetU8(&kind_byte)) return Truncated("temporal query kind");
  if (kind_byte >= kNumQueryKinds) {
    return InvalidArgumentError("unknown query kind byte " +
                                std::to_string(kind_byte));
  }
  query->kind = static_cast<QueryKind>(kind_byte);
  if (!r.GetF64(&query->budget_seconds)) {
    return Truncated("temporal query budget");
  }
  // Structural sanity only — semantic checks (k >= 1, doors in range)
  // are the router's and fail per-query, not per-connection. A NaN/inf
  // budget, like a NaN deadline, poisons comparisons and is stopped
  // here.
  if (query->kind == QueryKind::kReachability &&
      !std::isfinite(query->budget_seconds)) {
    return InvalidArgumentError(
        "temporal query budget_seconds is not finite");
  }
  if (!r.GetU32(&query->k)) return Truncated("temporal query k");
  uint32_t num_facilities = 0;
  if (!r.GetU32(&num_facilities)) return Truncated("temporal facility count");
  if (num_facilities > kMaxWireFacilities) {
    return InvalidArgumentError(
        "temporal query claims " + std::to_string(num_facilities) +
        " facilities (limit " + std::to_string(kMaxWireFacilities) + ")");
  }
  // 4 bytes per facility door id; bound before the reserve so a short
  // hostile frame cannot trigger a large allocation.
  if (r.Remaining() < static_cast<size_t>(num_facilities) * 4) {
    return Truncated("temporal facility doors");
  }
  query->facilities.clear();
  query->facilities.reserve(num_facilities);
  for (uint32_t i = 0; i < num_facilities; ++i) {
    DoorId door = 0;
    if (!r.GetI32(&door)) return Truncated("temporal facility door");
    query->facilities.push_back(door);
  }
  uint32_t num_waypoints = 0;
  if (!r.GetU32(&num_waypoints)) return Truncated("temporal waypoint count");
  if (num_waypoints > kMaxWireWaypoints) {
    return InvalidArgumentError(
        "temporal query claims " + std::to_string(num_waypoints) +
        " waypoints (limit " + std::to_string(kMaxWireWaypoints) + ")");
  }
  // 20 bytes per waypoint (x, y, floor).
  if (r.Remaining() < static_cast<size_t>(num_waypoints) * 20) {
    return Truncated("temporal waypoints");
  }
  query->waypoints.clear();
  query->waypoints.reserve(num_waypoints);
  for (uint32_t i = 0; i < num_waypoints; ++i) {
    IndoorPoint p;
    if (!r.GetF64(&p.p.x) || !r.GetF64(&p.p.y) || !r.GetI32(&p.floor)) {
      return Truncated("temporal waypoint");
    }
    if (!std::isfinite(p.p.x) || !std::isfinite(p.p.y)) {
      return InvalidArgumentError("waypoint coordinates are not finite");
    }
    query->waypoints.push_back(p);
  }
  return CheckDrained(r, "temporal query");
}

namespace {

void PutSteps(WireWriter& w, const std::vector<PathStep>& steps) {
  w.PutU32(static_cast<uint32_t>(steps.size()));
  for (const PathStep& step : steps) {
    w.PutI32(step.door);
    w.PutF64(step.cumulative_m);
    w.PutF64(step.arrival_seconds);
  }
}

Status GetSteps(WireReader& r, std::vector<PathStep>* steps,
                const char* what) {
  uint32_t num_steps = 0;
  if (!r.GetU32(&num_steps)) return Truncated(what);
  if (num_steps > kMaxWireSteps) {
    return InvalidArgumentError("reply claims " + std::to_string(num_steps) +
                                " path steps (limit " +
                                std::to_string(kMaxWireSteps) + ")");
  }
  // Each step is 20 bytes on the wire; a count exceeding the remaining
  // bytes is caught here, before the reserve, so a short hostile frame
  // cannot make the decoder allocate for steps it never sent.
  if (r.Remaining() < static_cast<size_t>(num_steps) * 20) {
    return Truncated(what);
  }
  steps->clear();
  steps->reserve(num_steps);
  for (uint32_t i = 0; i < num_steps; ++i) {
    PathStep step;
    if (!r.GetI32(&step.door) || !r.GetF64(&step.cumulative_m) ||
        !r.GetF64(&step.arrival_seconds)) {
      return Truncated(what);
    }
    steps->push_back(step);
  }
  return Status::Ok();
}

Status GetReplyCommon(WireReader& r, WireReply* reply) {
  uint8_t code_byte = 0;
  uint8_t found_byte = 0;
  if (!r.GetU64(&reply->request_id)) return Truncated("reply request_id");
  if (!r.GetU8(&code_byte)) return Truncated("reply status code");
  if (!StatusCodeFromWire(code_byte, &reply->code)) {
    return InvalidArgumentError("unknown status code byte " +
                                std::to_string(code_byte));
  }
  if (!r.GetString(&reply->message)) return Truncated("reply message");
  if (!r.GetU8(&found_byte)) return Truncated("reply found flag");
  reply->found = found_byte != 0;
  if (!r.GetF64(&reply->length_m)) return Truncated("reply length");
  if (!r.GetF64(&reply->departure_seconds)) return Truncated("reply departure");
  return GetSteps(r, &reply->steps, "reply path steps");
}

}  // namespace

std::string EncodeReplyFrame(const WireReply& reply, MsgType type) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU64(reply.request_id);
  w.PutU8(StatusCodeToWire(reply.code));
  w.PutString(reply.message);
  w.PutU8(reply.found ? 1 : 0);
  w.PutF64(reply.length_m);
  w.PutF64(reply.departure_seconds);
  PutSteps(w, reply.steps);
  if (type == MsgType::kTemporalReply) {
    w.PutU32(static_cast<uint32_t>(reply.reachable.size()));
    for (const ReachableDoor& door : reply.reachable) {
      w.PutI32(door.door);
      w.PutF64(door.distance_m);
      w.PutF64(door.arrival_seconds);
    }
    w.PutU32(static_cast<uint32_t>(reply.legs.size()));
    for (const WireLeg& leg : reply.legs) {
      w.PutF64(leg.length_m);
      w.PutF64(leg.departure_seconds);
      PutSteps(w, leg.steps);
    }
  }
  return std::move(w).Frame();
}

Status DecodeReplyBody(std::string_view body, WireReply* reply) {
  WireReader r(body);
  Status common = GetReplyCommon(r, reply);
  if (!common.ok()) return common;
  return CheckDrained(r, "reply");
}

Status DecodeTemporalReplyBody(std::string_view body, WireReply* reply) {
  WireReader r(body);
  Status common = GetReplyCommon(r, reply);
  if (!common.ok()) return common;
  uint32_t num_reachable = 0;
  if (!r.GetU32(&num_reachable)) return Truncated("reply reachable count");
  if (num_reachable > kMaxWireReachable) {
    return InvalidArgumentError(
        "reply claims " + std::to_string(num_reachable) +
        " reachable doors (limit " + std::to_string(kMaxWireReachable) + ")");
  }
  // 20 bytes per reachable entry (door, distance, arrival).
  if (r.Remaining() < static_cast<size_t>(num_reachable) * 20) {
    return Truncated("reply reachable doors");
  }
  reply->reachable.clear();
  reply->reachable.reserve(num_reachable);
  for (uint32_t i = 0; i < num_reachable; ++i) {
    ReachableDoor door;
    if (!r.GetI32(&door.door) || !r.GetF64(&door.distance_m) ||
        !r.GetF64(&door.arrival_seconds)) {
      return Truncated("reply reachable door");
    }
    reply->reachable.push_back(door);
  }
  uint32_t num_legs = 0;
  if (!r.GetU32(&num_legs)) return Truncated("reply leg count");
  if (num_legs > kMaxWireLegs) {
    return InvalidArgumentError("reply claims " + std::to_string(num_legs) +
                                " legs (limit " +
                                std::to_string(kMaxWireLegs) + ")");
  }
  // A leg is at least 20 bytes (length, departure, empty step count);
  // the per-leg step decode re-checks its own count against what
  // actually remains.
  if (r.Remaining() < static_cast<size_t>(num_legs) * 20) {
    return Truncated("reply legs");
  }
  reply->legs.clear();
  reply->legs.reserve(num_legs);
  for (uint32_t i = 0; i < num_legs; ++i) {
    WireLeg leg;
    if (!r.GetF64(&leg.length_m) || !r.GetF64(&leg.departure_seconds)) {
      return Truncated("reply leg");
    }
    Status steps = GetSteps(r, &leg.steps, "reply leg steps");
    if (!steps.ok()) return steps;
    reply->legs.push_back(std::move(leg));
  }
  return CheckDrained(r, "temporal reply");
}

std::string EncodeStatsReplyFrame(const WireStats& stats) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kStatsReply));
  w.PutU64(stats.submitted);
  w.PutU64(stats.served);
  w.PutU64(stats.shed);
  w.PutU64(stats.rejected);
  w.PutU64(stats.timed_out);
  for (size_t i = 0; i < kNumQosClasses; ++i) {
    w.PutU64(stats.served_by_class[i]);
  }
  for (size_t i = 0; i < kNumQosClasses; ++i) {
    w.PutU64(stats.shed_by_class[i]);
  }
  w.PutF64(stats.p50_micros);
  w.PutF64(stats.p99_micros);
  return std::move(w).Frame();
}

Status DecodeStatsReplyBody(std::string_view body, WireStats* stats) {
  WireReader r(body);
  if (!r.GetU64(&stats->submitted) || !r.GetU64(&stats->served) ||
      !r.GetU64(&stats->shed) || !r.GetU64(&stats->rejected) ||
      !r.GetU64(&stats->timed_out)) {
    return Truncated("stats totals");
  }
  for (size_t i = 0; i < kNumQosClasses; ++i) {
    if (!r.GetU64(&stats->served_by_class[i])) {
      return Truncated("stats served_by_class");
    }
  }
  for (size_t i = 0; i < kNumQosClasses; ++i) {
    if (!r.GetU64(&stats->shed_by_class[i])) {
      return Truncated("stats shed_by_class");
    }
  }
  if (!r.GetF64(&stats->p50_micros) || !r.GetF64(&stats->p99_micros)) {
    return Truncated("stats percentiles");
  }
  return CheckDrained(r, "stats");
}

std::string EncodeEmptyFrame(MsgType type) {
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(type));
  return std::move(w).Frame();
}

Status DecodeFrameHeader(std::string_view payload, MsgType* type,
                         std::string_view* body) {
  if (payload.empty()) {
    return InvalidArgumentError("empty frame payload (no message type)");
  }
  const uint8_t type_byte = static_cast<uint8_t>(payload[0]);
  if (type_byte < static_cast<uint8_t>(MsgType::kQuery) ||
      type_byte > static_cast<uint8_t>(MsgType::kTemporalReply)) {
    return InvalidArgumentError("unknown message type byte " +
                                std::to_string(type_byte));
  }
  *type = static_cast<MsgType>(type_byte);
  *body = payload.substr(1);
  return Status::Ok();
}

}  // namespace net
}  // namespace itspq
