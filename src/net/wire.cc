#include "net/wire.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/byte_codec.h"

namespace itspq {
namespace net {
namespace {

/// A frame's writer: room for the length prefix Frame() seals, then
/// the message type byte. 128 bytes hold a query frame and a short
/// reply without regrowing.
ByteWriter StartFrame(MsgType type) {
  ByteWriter w(128);
  w.Put(uint32_t{0});
  w.Put(static_cast<uint8_t>(type));
  return w;
}

/// Seals the frame: writes the payload's length into its prefix.
std::string Frame(ByteWriter&& w) {
  std::string frame = std::move(w).Take();
  const auto len = static_cast<uint32_t>(frame.size() - sizeof(uint32_t));
  std::memcpy(frame.data(), &len, sizeof(len));
  return frame;
}

Status Truncated(const std::string& what) {
  return InvalidArgumentError("truncated frame: " + what);
}

/// GetCount's rejection of `count`, kept out of the decoders' hot path.
Status CountError(const char* frame, const char* items, size_t limit,
                  uint32_t count) {
  if (count > limit) {
    return InvalidArgumentError(std::string(frame) + " claims " +
                                std::to_string(count) + " " + items +
                                " (limit " + std::to_string(limit) + ")");
  }
  return Truncated(std::string(frame) + " " + items);
}

/// Reads the u32 count of a list of `items` whose elements take `each`
/// bytes on the wire. A count past `limit` is refused and one past what
/// the body still holds is truncation, both before the caller reserves
/// room for it, so a short hostile frame cannot make the decoder
/// allocate for elements it never sent.
Status GetCount(ByteReader& r, const char* frame, const char* items,
                size_t limit, size_t each, uint32_t* count) {
  *count = 0;
  if (r.Get(count) && *count <= limit && r.Fits(*count, each)) {
    return Status::Ok();
  }
  return CountError(frame, items, limit, *count);
}

/// Decoded frames must consume their body exactly — trailing bytes mean
/// the peer speaks a different (newer? hostile?) layout, and silently
/// ignoring them would mask the skew.
Status CheckDrained(const ByteReader& reader, const char* what) {
  if (reader.Remaining() == 0) return Status::Ok();
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

void PutQueryCommon(ByteWriter& w, const WireQuery& query) {
  w.Put<uint64_t>(query.request_id);
  w.Put<int32_t>(query.venue_id);
  w.Put<uint8_t>(static_cast<uint8_t>(query.qos));
  uint8_t flags = 0;
  if (query.use_snapshot_cache) flags |= 1u;
  if (query.partition_visited_pruning) flags |= 2u;
  w.Put<uint8_t>(flags);
  w.Put<double>(query.deadline_micros);
  w.Put<double>(query.source_x);
  w.Put<double>(query.source_y);
  w.Put<int32_t>(query.source_floor);
  w.Put<double>(query.target_x);
  w.Put<double>(query.target_y);
  w.Put<int32_t>(query.target_floor);
  w.Put<double>(query.departure_seconds);
}

Status GetQueryCommon(ByteReader& r, WireQuery* query) {
  uint8_t qos_byte = 0;
  uint8_t flags = 0;
  if (!r.Get(&query->request_id)) return Truncated("query request_id");
  if (!r.Get(&query->venue_id)) return Truncated("query venue_id");
  if (!r.Get(&qos_byte)) return Truncated("query qos");
  if (qos_byte >= kNumQosClasses) {
    return InvalidArgumentError("unknown QoS class byte " +
                                std::to_string(qos_byte));
  }
  query->qos = static_cast<QosClass>(qos_byte);
  if (!r.Get(&flags)) return Truncated("query flags");
  query->use_snapshot_cache = (flags & 1u) != 0;
  query->partition_visited_pruning = (flags & 2u) != 0;
  if (!r.Get(&query->deadline_micros)) return Truncated("query deadline");
  // NaN would read as "no deadline" in every admission comparison and a
  // negative budget is meaningless; both are peer bugs, stopped at the
  // edge before they can reach Submit.
  if (std::isnan(query->deadline_micros) || query->deadline_micros < 0) {
    return InvalidArgumentError("query deadline_micros is NaN or negative");
  }
  if (!r.Get(&query->source_x) || !r.Get(&query->source_y) ||
      !r.Get(&query->source_floor)) {
    return Truncated("query source point");
  }
  if (!r.Get(&query->target_x) || !r.Get(&query->target_y) ||
      !r.Get(&query->target_floor)) {
    return Truncated("query target point");
  }
  if (!std::isfinite(query->source_x) || !std::isfinite(query->source_y) ||
      !std::isfinite(query->target_x) || !std::isfinite(query->target_y)) {
    return InvalidArgumentError("query endpoint coordinates are not finite");
  }
  if (!r.Get(&query->departure_seconds)) return Truncated("query departure");
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
  ByteWriter w = StartFrame(MsgType::kQuery);
  PutQueryCommon(w, query);
  return Frame(std::move(w));
}

Status DecodeQueryBody(std::string_view body, WireQuery* query) {
  ByteReader r(body);
  Status common = GetQueryCommon(r, query);
  if (!common.ok()) return common;
  return CheckDrained(r, "query");
}

std::string EncodeTemporalQueryFrame(const WireQuery& query) {
  ByteWriter w = StartFrame(MsgType::kTemporalQuery);
  PutQueryCommon(w, query);
  w.Put<uint8_t>(static_cast<uint8_t>(query.kind));
  w.Put<double>(query.budget_seconds);
  w.Put<uint32_t>(query.k);
  w.Put<uint32_t>(static_cast<uint32_t>(query.facilities.size()));
  w.Pod(query.facilities);
  w.Put<uint32_t>(static_cast<uint32_t>(query.waypoints.size()));
  for (const IndoorPoint& p : query.waypoints) {
    w.Put<double>(p.p.x);
    w.Put<double>(p.p.y);
    w.Put<int32_t>(p.floor);
  }
  return Frame(std::move(w));
}

Status DecodeTemporalQueryBody(std::string_view body, WireQuery* query) {
  ByteReader r(body);
  Status common = GetQueryCommon(r, query);
  if (!common.ok()) return common;
  uint8_t kind_byte = 0;
  if (!r.Get(&kind_byte)) return Truncated("temporal query kind");
  if (kind_byte >= kNumQueryKinds) {
    return InvalidArgumentError("unknown query kind byte " +
                                std::to_string(kind_byte));
  }
  query->kind = static_cast<QueryKind>(kind_byte);
  if (!r.Get(&query->budget_seconds)) {
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
  if (!r.Get(&query->k)) return Truncated("temporal query k");
  uint32_t num_facilities = 0;
  Status count = GetCount(r, "temporal query", "facilities",
                          kMaxWireFacilities, sizeof(DoorId), &num_facilities);
  if (!count.ok()) return count;
  r.Pod(&query->facilities, num_facilities);  // fits: GetCount checked
  // 20 bytes per waypoint (x, y, floor).
  uint32_t num_waypoints = 0;
  count = GetCount(r, "temporal query", "waypoints", kMaxWireWaypoints, 20,
                   &num_waypoints);
  if (!count.ok()) return count;
  query->waypoints.clear();
  query->waypoints.reserve(num_waypoints);
  for (uint32_t i = 0; i < num_waypoints; ++i) {
    IndoorPoint p;
    if (!r.Get(&p.p.x) || !r.Get(&p.p.y) || !r.Get(&p.floor)) {
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

void PutSteps(ByteWriter& w, const std::vector<PathStep>& steps) {
  w.Put<uint32_t>(static_cast<uint32_t>(steps.size()));
  for (const PathStep& step : steps) {
    w.Put<int32_t>(step.door);
    w.Put<double>(step.cumulative_m);
    w.Put<double>(step.arrival_seconds);
  }
}

/// `items` names the list: "path steps" or "leg steps".
Status GetSteps(ByteReader& r, std::vector<PathStep>* steps,
                const char* items) {
  // 20 bytes per step (door, cumulative metres, arrival).
  uint32_t num_steps = 0;
  Status count = GetCount(r, "reply", items, kMaxWireSteps, 20, &num_steps);
  if (!count.ok()) return count;
  steps->clear();
  steps->reserve(num_steps);
  for (uint32_t i = 0; i < num_steps; ++i) {
    PathStep step;
    if (!r.Get(&step.door) || !r.Get(&step.cumulative_m) ||
        !r.Get(&step.arrival_seconds)) {
      return Truncated(std::string("reply ") + items);
    }
    steps->push_back(step);
  }
  return Status::Ok();
}

Status GetReplyCommon(ByteReader& r, WireReply* reply) {
  uint8_t code_byte = 0;
  uint8_t found_byte = 0;
  if (!r.Get(&reply->request_id)) return Truncated("reply request_id");
  if (!r.Get(&code_byte)) return Truncated("reply status code");
  if (!StatusCodeFromWire(code_byte, &reply->code)) {
    return InvalidArgumentError("unknown status code byte " +
                                std::to_string(code_byte));
  }
  if (!r.String(&reply->message, kMaxWireString)) {
    return Truncated("reply message");
  }
  if (!r.Get(&found_byte)) return Truncated("reply found flag");
  reply->found = found_byte != 0;
  if (!r.Get(&reply->length_m)) return Truncated("reply length");
  if (!r.Get(&reply->departure_seconds)) return Truncated("reply departure");
  return GetSteps(r, &reply->steps, "path steps");
}

}  // namespace

std::string EncodeReplyFrame(const WireReply& reply, MsgType type) {
  ByteWriter w = StartFrame(type);
  w.Put<uint64_t>(reply.request_id);
  w.Put<uint8_t>(StatusCodeToWire(reply.code));
  w.String(std::string_view(reply.message).substr(0, kMaxWireString));
  w.Put<uint8_t>(reply.found ? 1 : 0);
  w.Put<double>(reply.length_m);
  w.Put<double>(reply.departure_seconds);
  PutSteps(w, reply.steps);
  if (type == MsgType::kTemporalReply) {
    w.Put<uint32_t>(static_cast<uint32_t>(reply.reachable.size()));
    for (const ReachableDoor& door : reply.reachable) {
      w.Put<int32_t>(door.door);
      w.Put<double>(door.distance_m);
      w.Put<double>(door.arrival_seconds);
    }
    w.Put<uint32_t>(static_cast<uint32_t>(reply.legs.size()));
    for (const WireLeg& leg : reply.legs) {
      w.Put<double>(leg.length_m);
      w.Put<double>(leg.departure_seconds);
      PutSteps(w, leg.steps);
    }
  }
  return Frame(std::move(w));
}

Status DecodeReplyBody(std::string_view body, WireReply* reply) {
  ByteReader r(body);
  Status common = GetReplyCommon(r, reply);
  if (!common.ok()) return common;
  return CheckDrained(r, "reply");
}

Status DecodeTemporalReplyBody(std::string_view body, WireReply* reply) {
  ByteReader r(body);
  Status common = GetReplyCommon(r, reply);
  if (!common.ok()) return common;
  // 20 bytes per reachable entry (door, distance, arrival).
  uint32_t num_reachable = 0;
  Status count = GetCount(r, "reply", "reachable doors", kMaxWireReachable,
                          20, &num_reachable);
  if (!count.ok()) return count;
  reply->reachable.clear();
  reply->reachable.reserve(num_reachable);
  for (uint32_t i = 0; i < num_reachable; ++i) {
    ReachableDoor door;
    if (!r.Get(&door.door) || !r.Get(&door.distance_m) ||
        !r.Get(&door.arrival_seconds)) {
      return Truncated("reply reachable door");
    }
    reply->reachable.push_back(door);
  }
  // A leg is at least 20 bytes (length, departure, empty step count);
  // the per-leg step decode re-checks its own count against what
  // actually remains.
  uint32_t num_legs = 0;
  count = GetCount(r, "reply", "legs", kMaxWireLegs, 20, &num_legs);
  if (!count.ok()) return count;
  reply->legs.clear();
  reply->legs.reserve(num_legs);
  for (uint32_t i = 0; i < num_legs; ++i) {
    WireLeg leg;
    if (!r.Get(&leg.length_m) || !r.Get(&leg.departure_seconds)) {
      return Truncated("reply leg");
    }
    Status steps = GetSteps(r, &leg.steps, "leg steps");
    if (!steps.ok()) return steps;
    reply->legs.push_back(std::move(leg));
  }
  return CheckDrained(r, "temporal reply");
}

std::string EncodeStatsReplyFrame(const WireStats& stats) {
  ByteWriter w = StartFrame(MsgType::kStatsReply);
  w.Put<uint64_t>(stats.submitted);
  w.Put<uint64_t>(stats.served);
  w.Put<uint64_t>(stats.shed);
  w.Put<uint64_t>(stats.rejected);
  w.Put<uint64_t>(stats.timed_out);
  w.Put(stats.served_by_class);  // kNumQosClasses u64s each
  w.Put(stats.shed_by_class);
  w.Put<double>(stats.p50_micros);
  w.Put<double>(stats.p99_micros);
  return Frame(std::move(w));
}

Status DecodeStatsReplyBody(std::string_view body, WireStats* stats) {
  ByteReader r(body);
  if (!r.Get(&stats->submitted) || !r.Get(&stats->served) ||
      !r.Get(&stats->shed) || !r.Get(&stats->rejected) ||
      !r.Get(&stats->timed_out)) {
    return Truncated("stats totals");
  }
  if (!r.Get(&stats->served_by_class)) {
    return Truncated("stats served_by_class");
  }
  if (!r.Get(&stats->shed_by_class)) return Truncated("stats shed_by_class");
  if (!r.Get(&stats->p50_micros) || !r.Get(&stats->p99_micros)) {
    return Truncated("stats percentiles");
  }
  return CheckDrained(r, "stats");
}

std::string EncodeEmptyFrame(MsgType type) {
  ByteWriter w = StartFrame(type);
  return Frame(std::move(w));
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
