// The frame codec under friendly and hostile input: bit-exact round
// trips for every message type, then the malformed-frame taxonomy —
// truncations at every field boundary, counts that overrun the body,
// garbage enum bytes, trailing bytes — each rejected with a precise
// Status instead of an out-of-bounds read (the asan CI preset is the
// teeth behind that claim).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "net/wire.h"

namespace itspq {
namespace net {
namespace {

// Splits an encoded frame into (type, body) the way a receiver would,
// asserting the length prefix is self-consistent.
std::string_view FrameBody(const std::string& frame, MsgType expect) {
  EXPECT_GE(frame.size(), 5u);
  uint32_t len = 0;
  std::memcpy(&len, frame.data(), sizeof len);
  EXPECT_EQ(frame.size(), sizeof len + len);
  std::string_view payload(frame.data() + sizeof len, len);
  MsgType type;
  std::string_view body;
  EXPECT_TRUE(DecodeFrameHeader(payload, &type, &body).ok());
  EXPECT_EQ(type, expect);
  return body;
}

WireQuery SampleQuery() {
  WireQuery q;
  q.request_id = 0xDEADBEEFCAFE1234ull;
  q.venue_id = 7;
  q.qos = QosClass::kBatch;
  q.deadline_micros = 12345.678;
  q.use_snapshot_cache = true;
  q.partition_visited_pruning = false;
  q.source_x = 1.25;
  q.source_y = -3.5;
  q.source_floor = 2;
  q.target_x = 901.0625;
  q.target_y = 0.1;  // not exactly representable: bit-exactness matters
  q.target_floor = -1;
  q.departure_seconds = 43200.25;
  return q;
}

TEST(WireQueryTest, RoundTripIsBitExact) {
  const WireQuery q = SampleQuery();
  const std::string frame = EncodeQueryFrame(q);
  WireQuery out;
  ASSERT_TRUE(DecodeQueryBody(FrameBody(frame, MsgType::kQuery), &out).ok());
  EXPECT_EQ(out.request_id, q.request_id);
  EXPECT_EQ(out.venue_id, q.venue_id);
  EXPECT_EQ(out.qos, q.qos);
  EXPECT_EQ(out.deadline_micros, q.deadline_micros);
  EXPECT_EQ(out.use_snapshot_cache, q.use_snapshot_cache);
  EXPECT_EQ(out.partition_visited_pruning, q.partition_visited_pruning);
  EXPECT_EQ(out.source_x, q.source_x);
  EXPECT_EQ(out.source_y, q.source_y);
  EXPECT_EQ(out.source_floor, q.source_floor);
  EXPECT_EQ(out.target_x, q.target_x);
  EXPECT_EQ(out.target_y, q.target_y);
  EXPECT_EQ(out.target_floor, q.target_floor);
  EXPECT_EQ(out.departure_seconds, q.departure_seconds);
}

TEST(WireQueryTest, QueryRequestConversionPreservesEverything) {
  const WireQuery q = SampleQuery();
  const QueryRequest request = ToQueryRequest(q);
  const WireQuery back = FromQueryRequest(request, q.request_id, q.qos,
                                          q.deadline_micros);
  EXPECT_EQ(back.venue_id, q.venue_id);
  EXPECT_EQ(back.source_x, q.source_x);
  EXPECT_EQ(back.source_floor, q.source_floor);
  EXPECT_EQ(back.target_y, q.target_y);
  EXPECT_EQ(back.departure_seconds, q.departure_seconds);
  EXPECT_EQ(back.use_snapshot_cache, q.use_snapshot_cache);
  EXPECT_EQ(back.partition_visited_pruning, q.partition_visited_pruning);
}

TEST(WireQueryTest, InfiniteDeadlineSurvivesTheWire) {
  WireQuery q = SampleQuery();
  q.deadline_micros = std::numeric_limits<double>::infinity();
  WireQuery out;
  ASSERT_TRUE(DecodeQueryBody(
                  FrameBody(EncodeQueryFrame(q), MsgType::kQuery), &out)
                  .ok());
  EXPECT_TRUE(std::isinf(out.deadline_micros));
}

TEST(WireQueryTest, TruncationAtEveryBoundaryIsRejected) {
  const std::string frame = EncodeQueryFrame(SampleQuery());
  const std::string_view body = FrameBody(frame, MsgType::kQuery);
  // Every strict prefix of the body must fail decode — never crash,
  // never succeed with garbage.
  for (size_t n = 0; n < body.size(); ++n) {
    WireQuery out;
    const Status s = DecodeQueryBody(body.substr(0, n), &out);
    EXPECT_FALSE(s.ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireQueryTest, TrailingBytesAreRejected) {
  std::string frame = EncodeQueryFrame(SampleQuery());
  std::string body(FrameBody(frame, MsgType::kQuery));
  body.push_back('\0');
  WireQuery out;
  const Status s = DecodeQueryBody(body, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("trailing"), std::string::npos);
}

TEST(WireQueryTest, UnknownQosByteIsRejected) {
  std::string frame = EncodeQueryFrame(SampleQuery());
  // Body layout: request_id (8) + venue_id (4) + qos byte.
  const size_t qos_offset = 4 /*prefix*/ + 1 /*type*/ + 8 + 4;
  frame[qos_offset] = static_cast<char>(kNumQosClasses);
  WireQuery out;
  const Status s =
      DecodeQueryBody(FrameBody(frame, MsgType::kQuery), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("QoS"), std::string::npos);
}

TEST(WireQueryTest, NanAndNegativeDeadlinesNeverDecode) {
  for (double bad : {std::nan(""), -1.0,
                     -std::numeric_limits<double>::infinity()}) {
    WireQuery q = SampleQuery();
    q.deadline_micros = bad;
    WireQuery out;
    const Status s = DecodeQueryBody(
        FrameBody(EncodeQueryFrame(q), MsgType::kQuery), &out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(WireReplyTest, RoundTripWithPathSteps) {
  WireReply reply;
  reply.request_id = 42;
  reply.code = StatusCode::kOk;
  reply.found = true;
  reply.length_m = 633.41;
  reply.departure_seconds = 30600;
  for (int i = 0; i < 5; ++i) {
    PathStep step;
    step.door = i * 3;
    step.cumulative_m = i * 12.5;
    step.arrival_seconds = 30600 + i * 10.41;
    reply.steps.push_back(step);
  }
  const std::string frame = EncodeReplyFrame(reply, MsgType::kQueryReply);
  WireReply out;
  ASSERT_TRUE(
      DecodeReplyBody(FrameBody(frame, MsgType::kQueryReply), &out).ok());
  EXPECT_EQ(out.request_id, reply.request_id);
  EXPECT_EQ(out.code, StatusCode::kOk);
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.length_m, reply.length_m);
  ASSERT_EQ(out.steps.size(), reply.steps.size());
  for (size_t i = 0; i < out.steps.size(); ++i) {
    EXPECT_EQ(out.steps[i].door, reply.steps[i].door);
    EXPECT_EQ(out.steps[i].cumulative_m, reply.steps[i].cumulative_m);
    EXPECT_EQ(out.steps[i].arrival_seconds, reply.steps[i].arrival_seconds);
  }
}

TEST(WireReplyTest, ErrorReplyCarriesStatus) {
  WireReply reply;
  reply.request_id = 9;
  reply.code = StatusCode::kResourceExhausted;
  reply.message = "shed: displaced by higher-priority traffic";
  const std::string frame = EncodeReplyFrame(reply, MsgType::kQueryReply);
  WireReply out;
  ASSERT_TRUE(
      DecodeReplyBody(FrameBody(frame, MsgType::kQueryReply), &out).ok());
  EXPECT_EQ(out.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(out.message, reply.message);
  EXPECT_FALSE(out.found);
}

TEST(WireReplyTest, UnknownStatusByteIsRejected) {
  WireReply reply;
  reply.request_id = 1;
  std::string frame = EncodeReplyFrame(reply, MsgType::kQueryReply);
  const size_t code_offset = 4 + 1 + 8;  // prefix + type + request_id
  frame[code_offset] = static_cast<char>(kNumWireStatusCodes);
  WireReply out;
  const Status s =
      DecodeReplyBody(FrameBody(frame, MsgType::kQueryReply), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("status code"), std::string::npos);
}

TEST(WireReplyTest, StepCountOverrunningBodyIsRejectedBeforeAllocation) {
  WireReply reply;
  reply.request_id = 1;
  std::string frame = EncodeReplyFrame(reply, MsgType::kQueryReply);
  // Body tail is the uint32 step count (0 in this frame); claim 2^16-1
  // steps with no bytes behind them.
  const uint32_t huge = kMaxWireSteps - 1;
  std::memcpy(&frame[frame.size() - 4], &huge, sizeof huge);
  WireReply out;
  const Status s =
      DecodeReplyBody(FrameBody(frame, MsgType::kQueryReply), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("truncated"), std::string::npos);
  // And a count beyond the hard cap is its own precise rejection.
  const uint32_t absurd = kMaxWireSteps + 1;
  std::memcpy(&frame[frame.size() - 4], &absurd, sizeof absurd);
  const Status cap =
      DecodeReplyBody(FrameBody(frame, MsgType::kQueryReply), &out);
  EXPECT_EQ(cap.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cap.message().find("limit"), std::string::npos);
}

TEST(WireReplyTest, OversizedMessageStringIsRejected) {
  WireReply reply;
  reply.request_id = 1;
  reply.code = StatusCode::kInternal;
  std::string frame = EncodeReplyFrame(reply, MsgType::kQueryReply);
  // The message length field sits after request_id + code byte; claim
  // a string longer than the cap (and the body).
  const size_t len_offset = 4 + 1 + 8 + 1;
  const uint32_t huge = kMaxWireString + 1;
  std::memcpy(&frame[len_offset], &huge, sizeof huge);
  WireReply out;
  const Status s =
      DecodeReplyBody(FrameBody(frame, MsgType::kQueryReply), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(WireReplyTest, EncoderTruncatesOverlongMessages) {
  WireReply reply;
  reply.request_id = 1;
  reply.code = StatusCode::kInternal;
  reply.message.assign(kMaxWireString * 2, 'x');
  const std::string frame = EncodeReplyFrame(reply, MsgType::kQueryReply);
  WireReply out;
  ASSERT_TRUE(
      DecodeReplyBody(FrameBody(frame, MsgType::kQueryReply), &out).ok());
  EXPECT_EQ(out.message.size(), kMaxWireString);
}

// A kTemporalQuery carrying every extension field at once; the kind is
// whatever the test needs.
WireQuery SampleTemporalQuery(QueryKind kind) {
  WireQuery q = SampleQuery();
  q.kind = kind;
  q.budget_seconds = 1234.0625;
  q.k = 3;
  q.facilities = {4, 0, 219};
  q.waypoints = {IndoorPoint{{12.5, -0.1}, 1}, IndoorPoint{{900.25, 3.5}, 0}};
  return q;
}

TEST(WireTemporalQueryTest, RoundTripIsBitExactForEveryKind) {
  for (QueryKind kind : {QueryKind::kReachability, QueryKind::kNearestFacility,
                         QueryKind::kMultiStop}) {
    const WireQuery q = SampleTemporalQuery(kind);
    const std::string frame = EncodeTemporalQueryFrame(q);
    WireQuery out;
    ASSERT_TRUE(DecodeTemporalQueryBody(
                    FrameBody(frame, MsgType::kTemporalQuery), &out)
                    .ok());
    EXPECT_EQ(out.request_id, q.request_id);
    EXPECT_EQ(out.kind, kind);
    EXPECT_EQ(out.budget_seconds, q.budget_seconds);
    EXPECT_EQ(out.k, q.k);
    EXPECT_EQ(out.facilities, q.facilities);
    ASSERT_EQ(out.waypoints.size(), q.waypoints.size());
    for (size_t i = 0; i < q.waypoints.size(); ++i) {
      EXPECT_EQ(out.waypoints[i].p.x, q.waypoints[i].p.x);
      EXPECT_EQ(out.waypoints[i].p.y, q.waypoints[i].p.y);
      EXPECT_EQ(out.waypoints[i].floor, q.waypoints[i].floor);
    }
    EXPECT_EQ(out.departure_seconds, q.departure_seconds);
  }
}

TEST(WireTemporalQueryTest, ConversionCarriesFamilyFieldsBothWays) {
  const WireQuery q = SampleTemporalQuery(QueryKind::kNearestFacility);
  const QueryRequest request = ToQueryRequest(q);
  EXPECT_EQ(request.kind, QueryKind::kNearestFacility);
  EXPECT_EQ(request.budget_seconds, q.budget_seconds);
  EXPECT_EQ(request.k, q.k);
  EXPECT_EQ(request.facilities, q.facilities);
  const WireQuery back =
      FromQueryRequest(request, q.request_id, q.qos, q.deadline_micros);
  EXPECT_EQ(back.kind, q.kind);
  EXPECT_EQ(back.facilities, q.facilities);
  EXPECT_EQ(back.waypoints.size(), q.waypoints.size());
}

TEST(WireTemporalQueryTest, TruncationAtEveryBoundaryIsRejected) {
  const std::string frame =
      EncodeTemporalQueryFrame(SampleTemporalQuery(QueryKind::kMultiStop));
  const std::string_view body = FrameBody(frame, MsgType::kTemporalQuery);
  for (size_t n = 0; n < body.size(); ++n) {
    WireQuery out;
    const Status s = DecodeTemporalQueryBody(body.substr(0, n), &out);
    EXPECT_FALSE(s.ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireTemporalQueryTest, TrailingBytesAreRejected) {
  std::string body(FrameBody(
      EncodeTemporalQueryFrame(SampleTemporalQuery(QueryKind::kReachability)),
      MsgType::kTemporalQuery));
  body.push_back('\0');
  WireQuery out;
  const Status s = DecodeTemporalQueryBody(body, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("trailing"), std::string::npos);
}

TEST(WireTemporalQueryTest, UnknownKindByteIsRejected) {
  std::string frame =
      EncodeTemporalQueryFrame(SampleTemporalQuery(QueryKind::kReachability));
  // The kind byte follows the 70-byte common body: prefix (4) + type
  // (1) + common (70).
  const size_t kind_offset = 4 + 1 + 70;
  frame[kind_offset] = static_cast<char>(kNumQueryKinds);
  WireQuery out;
  const Status s = DecodeTemporalQueryBody(
      FrameBody(frame, MsgType::kTemporalQuery), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("kind"), std::string::npos);
}

TEST(WireTemporalQueryTest, NonFiniteDepartureRejectedByBothCodecs) {
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    WireQuery q = SampleQuery();
    q.departure_seconds = bad;
    WireQuery out;
    const Status plain =
        DecodeQueryBody(FrameBody(EncodeQueryFrame(q), MsgType::kQuery), &out);
    EXPECT_EQ(plain.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(plain.message().find("departure"), std::string::npos);

    WireQuery tq = SampleTemporalQuery(QueryKind::kMultiStop);
    tq.departure_seconds = bad;
    const Status temporal = DecodeTemporalQueryBody(
        FrameBody(EncodeTemporalQueryFrame(tq), MsgType::kTemporalQuery),
        &out);
    EXPECT_EQ(temporal.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(temporal.message().find("departure"), std::string::npos);
  }
}

// Non-finite endpoint and waypoint coordinates stop at the edge, as a
// non-finite departure does; a finite but far-away point decodes and is
// left to the router, which finds it outside every partition.
TEST(WireTemporalQueryTest, NonFiniteCoordinatesRejectedByBothCodecs) {
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), 1e300}) {
    const bool finite = std::isfinite(bad);
    WireQuery out;
    for (double WireQuery::*field :
         {&WireQuery::source_x, &WireQuery::source_y, &WireQuery::target_x,
          &WireQuery::target_y}) {
      WireQuery q = SampleQuery();
      q.*field = bad;
      const Status plain = DecodeQueryBody(
          FrameBody(EncodeQueryFrame(q), MsgType::kQuery), &out);
      WireQuery tq = SampleTemporalQuery(QueryKind::kReachability);
      tq.*field = bad;
      const Status temporal = DecodeTemporalQueryBody(
          FrameBody(EncodeTemporalQueryFrame(tq), MsgType::kTemporalQuery),
          &out);
      for (const Status& s : {plain, temporal}) {
        if (finite) {
          EXPECT_TRUE(s.ok()) << s.ToString();
          continue;
        }
        EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
        EXPECT_NE(s.message().find("coordinates"), std::string::npos)
            << s.ToString();
      }
    }
    WireQuery tq = SampleTemporalQuery(QueryKind::kMultiStop);
    tq.waypoints[1].p.y = bad;
    const Status waypoint = DecodeTemporalQueryBody(
        FrameBody(EncodeTemporalQueryFrame(tq), MsgType::kTemporalQuery),
        &out);
    if (finite) {
      EXPECT_TRUE(waypoint.ok()) << waypoint.ToString();
      EXPECT_EQ(out.waypoints[1].p.y, bad);
    } else {
      EXPECT_EQ(waypoint.code(), StatusCode::kInvalidArgument) << bad;
      EXPECT_NE(waypoint.message().find("waypoint"), std::string::npos);
    }
  }
}

TEST(WireTemporalQueryTest, NonFiniteBudgetRejectedForReachabilityOnly) {
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    WireQuery q = SampleTemporalQuery(QueryKind::kReachability);
    q.budget_seconds = bad;
    WireQuery out;
    const Status s = DecodeTemporalQueryBody(
        FrameBody(EncodeTemporalQueryFrame(q), MsgType::kTemporalQuery), &out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(s.message().find("budget"), std::string::npos);

    // Other kinds never read the budget, so its bits pass through.
    q.kind = QueryKind::kNearestFacility;
    ASSERT_TRUE(DecodeTemporalQueryBody(
                    FrameBody(EncodeTemporalQueryFrame(q),
                              MsgType::kTemporalQuery),
                    &out)
                    .ok())
        << bad;
  }
}

TEST(WireTemporalQueryTest, FacilityCountOverrunsAreRejected) {
  WireQuery q = SampleTemporalQuery(QueryKind::kReachability);
  q.facilities.clear();
  q.waypoints.clear();
  std::string frame = EncodeTemporalQueryFrame(q);
  // Facility count offset: prefix (4) + type (1) + common (70) + kind
  // (1) + budget (8) + k (4).
  const size_t count_offset = 4 + 1 + 70 + 1 + 8 + 4;
  // Within the cap but with no bytes behind it: a truncation.
  const uint32_t claims = 1024;
  std::memcpy(&frame[count_offset], &claims, sizeof claims);
  WireQuery out;
  Status s = DecodeTemporalQueryBody(
      FrameBody(frame, MsgType::kTemporalQuery), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("truncated"), std::string::npos);
  // Beyond the cap: its own precise rejection, before any allocation.
  const uint32_t absurd = kMaxWireFacilities + 1;
  std::memcpy(&frame[count_offset], &absurd, sizeof absurd);
  s = DecodeTemporalQueryBody(FrameBody(frame, MsgType::kTemporalQuery), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("limit"), std::string::npos);
}

TEST(WireTemporalQueryTest, WaypointCountOverrunsAreRejected) {
  WireQuery q = SampleTemporalQuery(QueryKind::kMultiStop);
  q.facilities.clear();
  q.waypoints.clear();
  std::string frame = EncodeTemporalQueryFrame(q);
  // Waypoint count follows the (empty) facility list: facility count
  // offset + 4.
  const size_t count_offset = 4 + 1 + 70 + 1 + 8 + 4 + 4;
  const uint32_t claims = 512;
  std::memcpy(&frame[count_offset], &claims, sizeof claims);
  WireQuery out;
  Status s = DecodeTemporalQueryBody(
      FrameBody(frame, MsgType::kTemporalQuery), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("truncated"), std::string::npos);
  const uint32_t absurd = kMaxWireWaypoints + 1;
  std::memcpy(&frame[count_offset], &absurd, sizeof absurd);
  s = DecodeTemporalQueryBody(FrameBody(frame, MsgType::kTemporalQuery), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("limit"), std::string::npos);
}

WireReply SampleTemporalReply() {
  WireReply reply;
  reply.request_id = 77;
  reply.code = StatusCode::kOk;
  reply.found = true;
  for (int i = 0; i < 4; ++i) {
    ReachableDoor door;
    door.door = i * 7;
    door.distance_m = 100.125 * (i + 1);
    door.arrival_seconds = 43200 + 83.4375 * (i + 1);
    reply.reachable.push_back(door);
  }
  for (int l = 0; l < 2; ++l) {
    WireLeg leg;
    leg.length_m = 250.5 + l;
    leg.departure_seconds = 43200 + 200.0 * l;
    for (int s = 0; s < 3; ++s) {
      PathStep step;
      step.door = l * 10 + s;
      step.cumulative_m = s * 12.25;
      step.arrival_seconds = leg.departure_seconds + s * 10.5;
      leg.steps.push_back(step);
    }
    reply.legs.push_back(leg);
  }
  return reply;
}

TEST(WireTemporalReplyTest, RoundTripWithReachableAndLegsIsBitExact) {
  const WireReply reply = SampleTemporalReply();
  const std::string frame = EncodeReplyFrame(reply, MsgType::kTemporalReply);
  WireReply out;
  ASSERT_TRUE(DecodeTemporalReplyBody(
                  FrameBody(frame, MsgType::kTemporalReply), &out)
                  .ok());
  ASSERT_EQ(out.reachable.size(), reply.reachable.size());
  for (size_t i = 0; i < reply.reachable.size(); ++i) {
    EXPECT_EQ(out.reachable[i].door, reply.reachable[i].door);
    EXPECT_EQ(out.reachable[i].distance_m, reply.reachable[i].distance_m);
    EXPECT_EQ(out.reachable[i].arrival_seconds,
              reply.reachable[i].arrival_seconds);
  }
  ASSERT_EQ(out.legs.size(), reply.legs.size());
  for (size_t l = 0; l < reply.legs.size(); ++l) {
    EXPECT_EQ(out.legs[l].length_m, reply.legs[l].length_m);
    EXPECT_EQ(out.legs[l].departure_seconds, reply.legs[l].departure_seconds);
    ASSERT_EQ(out.legs[l].steps.size(), reply.legs[l].steps.size());
    for (size_t s = 0; s < reply.legs[l].steps.size(); ++s) {
      EXPECT_EQ(out.legs[l].steps[s].door, reply.legs[l].steps[s].door);
      EXPECT_EQ(out.legs[l].steps[s].cumulative_m,
                reply.legs[l].steps[s].cumulative_m);
      EXPECT_EQ(out.legs[l].steps[s].arrival_seconds,
                reply.legs[l].steps[s].arrival_seconds);
    }
  }
}

TEST(WireTemporalReplyTest, QueryReplyFramesCarryNoExtension) {
  // Encoding the same reply as kQueryReply drops the extension — the
  // old layout stays byte-stable for old peers...
  const WireReply reply = SampleTemporalReply();
  const std::string frame = EncodeReplyFrame(reply, MsgType::kQueryReply);
  WireReply out;
  ASSERT_TRUE(
      DecodeReplyBody(FrameBody(frame, MsgType::kQueryReply), &out).ok());
  EXPECT_TRUE(out.reachable.empty());
  EXPECT_TRUE(out.legs.empty());
  // ...and the base decoder refuses a temporal body rather than
  // silently ignoring the extension bytes.
  const std::string temporal = EncodeReplyFrame(reply, MsgType::kTemporalReply);
  const Status s =
      DecodeReplyBody(FrameBody(temporal, MsgType::kTemporalReply), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("trailing"), std::string::npos);
}

TEST(WireTemporalReplyTest, TruncationAtEveryBoundaryIsRejected) {
  const std::string frame =
      EncodeReplyFrame(SampleTemporalReply(), MsgType::kTemporalReply);
  const std::string_view body = FrameBody(frame, MsgType::kTemporalReply);
  for (size_t n = 0; n < body.size(); ++n) {
    WireReply out;
    const Status s = DecodeTemporalReplyBody(body.substr(0, n), &out);
    EXPECT_FALSE(s.ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireTemporalReplyTest, ReachableAndLegCountOverrunsAreRejected) {
  WireReply reply;
  reply.request_id = 1;
  std::string frame = EncodeReplyFrame(reply, MsgType::kTemporalReply);
  // An all-empty temporal reply body: request_id (8) + code (1) +
  // message length (4) + found (1) + length (8) + departure (8) + step
  // count (4) = 34 bytes, then the reachable count and the leg count.
  const size_t reachable_offset = 4 + 1 + 34;
  const size_t legs_offset = reachable_offset + 4;
  WireReply out;

  uint32_t claims = 2048;
  std::memcpy(&frame[reachable_offset], &claims, sizeof claims);
  Status s = DecodeTemporalReplyBody(
      FrameBody(frame, MsgType::kTemporalReply), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("truncated"), std::string::npos);
  uint32_t absurd = kMaxWireReachable + 1;
  std::memcpy(&frame[reachable_offset], &absurd, sizeof absurd);
  s = DecodeTemporalReplyBody(FrameBody(frame, MsgType::kTemporalReply), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("limit"), std::string::npos);

  claims = 0;
  std::memcpy(&frame[reachable_offset], &claims, sizeof claims);
  claims = 64;
  std::memcpy(&frame[legs_offset], &claims, sizeof claims);
  s = DecodeTemporalReplyBody(FrameBody(frame, MsgType::kTemporalReply), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("truncated"), std::string::npos);
  absurd = kMaxWireLegs + 1;
  std::memcpy(&frame[legs_offset], &absurd, sizeof absurd);
  s = DecodeTemporalReplyBody(FrameBody(frame, MsgType::kTemporalReply), &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("limit"), std::string::npos);
}

TEST(WireStatsTest, RoundTrip) {
  WireStats stats;
  stats.submitted = 1000;
  stats.served = 800;
  stats.shed = 120;
  stats.rejected = 50;
  stats.timed_out = 30;
  stats.served_by_class[0] = 500;
  stats.served_by_class[1] = 200;
  stats.served_by_class[2] = 100;
  stats.shed_by_class[2] = 120;
  stats.p50_micros = 512;
  stats.p99_micros = 8192;
  const std::string frame = EncodeStatsReplyFrame(stats);
  WireStats out;
  ASSERT_TRUE(
      DecodeStatsReplyBody(FrameBody(frame, MsgType::kStatsReply), &out).ok());
  EXPECT_EQ(out.submitted, stats.submitted);
  EXPECT_EQ(out.served, stats.served);
  EXPECT_EQ(out.shed, stats.shed);
  EXPECT_EQ(out.rejected, stats.rejected);
  EXPECT_EQ(out.timed_out, stats.timed_out);
  EXPECT_EQ(out.served_by_class[1], 200u);
  EXPECT_EQ(out.shed_by_class[2], 120u);
  EXPECT_EQ(out.p99_micros, 8192);
}

TEST(FrameHeaderTest, EmptyAndUnknownTypesRejected) {
  MsgType type;
  std::string_view body;
  EXPECT_EQ(DecodeFrameHeader("", &type, &body).code(),
            StatusCode::kInvalidArgument);
  const std::string garbage = "\x2a junk";
  EXPECT_EQ(DecodeFrameHeader(garbage, &type, &body).code(),
            StatusCode::kInvalidArgument);
  const std::string zero("\0", 1);
  EXPECT_EQ(DecodeFrameHeader(zero, &type, &body).code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameHeaderTest, EmptyBodyFramesDecode) {
  for (MsgType t :
       {MsgType::kStatsRequest, MsgType::kShutdown, MsgType::kShutdownAck}) {
    const std::string frame = EncodeEmptyFrame(t);
    EXPECT_TRUE(FrameBody(frame, t).empty());
  }
}

}  // namespace
}  // namespace net
}  // namespace itspq
