// The network edge end to end over real loopback sockets: the replay
// proof (answers served through the wire are bit-identical to direct
// Router::Route calls), the QoS overload property from the admission
// contract (under 2x overload only the lowest class present is shed and
// the accounting identity stays exact), the stats/shutdown control
// frames, and the hostile-peer taxonomy — truncated frames, oversized
// length prefixes, garbage bytes, mid-frame disconnects, slow-loris
// stalls — each of which must end in a precise kError frame and a
// dropped connection, never UB (the asan/tsan CI presets run this
// file against real sockets).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/query_gen.h"
#include "gen/workload_gen.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "query/venue_catalog.h"
#include "server/query_service.h"

namespace itspq {
namespace net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

template <typename T>
T ValueOrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

VenueCatalog MakeCatalog(int num_venues = 2, uint64_t seed = 7) {
  FleetConfig config;
  config.num_venues = num_venues;
  config.seed = seed;
  config.min_floors = 1;
  config.max_floors = 2;
  config.min_shop_rows = 2;
  config.max_shop_rows = 3;
  std::vector<Venue> fleet =
      ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
  VenueCatalog catalog;
  for (Venue& venue : fleet) {
    (void)ValueOrDie(catalog.AddVenue(std::move(venue), "itg-a+"), "AddVenue");
  }
  return catalog;
}

std::unique_ptr<NetServer> MakeTestServer(
    ServiceOptions service_opts = ServiceOptions(),
    NetServerOptions net_opts = NetServerOptions()) {
  auto service =
      ValueOrDie(MakeQueryService(MakeCatalog(), service_opts),
                 "MakeQueryService");
  return ValueOrDie(MakeNetServer(std::move(service), net_opts),
                    "MakeNetServer");
}

/// Spins until `cond` holds or ~5 s pass (sanitizer presets are slow).
bool WaitFor(const std::function<bool()>& cond) {
  for (int i = 0; i < 1000; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

/// Reads the next frame off a raw socket and decodes it as the server's
/// kError verdict; fails the test otherwise.
WireReply ReadErrorFrame(int fd) {
  std::string payload;
  Status error;
  WireReply reply;
  const FrameRead got = ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &error);
  if (got != FrameRead::kFrame) {
    ADD_FAILURE() << "expected kError frame, got FrameRead "
                  << static_cast<int>(got) << ": " << error.ToString();
    return reply;
  }
  MsgType type = MsgType::kError;
  std::string_view body;
  EXPECT_TRUE(DecodeFrameHeader(payload, &type, &body).ok());
  EXPECT_EQ(type, MsgType::kError);
  EXPECT_TRUE(DecodeReplyBody(body, &reply).ok());
  return reply;
}

/// After the server's goodbye the socket must deliver EOF.
void ExpectEof(int fd) {
  std::string payload;
  Status error;
  EXPECT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &error),
            FrameRead::kCleanClose)
      << error.ToString();
}

/// Open file descriptors of this process (client and server ends alike).
size_t CountOpenFds() {
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

/// Open fds once departed peers are reaped, for a process that held
/// `before` when they connected. A probe's answered round trip means its
/// accept, and the reaping that runs on it, are done. Allowed above the
/// start: the probe's two ends plus one departed peer not yet finished
/// when that accept ran. A few probes give slow (sanitizer) builds time
/// for the last peers to exit.
size_t OpenFdsAfterReaping(NetServer& server, size_t before) {
  size_t after = 0;
  for (int probes = 0; probes < 20; ++probes) {
    auto probe =
        ValueOrDie(NetClient::Connect(server.port()), "NetClient::Connect");
    EXPECT_TRUE(probe->FetchStats().ok());
    after = CountOpenFds();
    if (after <= before + 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return after;
}

/// Sends two stats requests in one write and reads both replies. The
/// second request is already waiting when the reader goes idle after
/// the first, so the reader then spins for this peer's next frame.
void TwoStatsRoundTrips(int fd) {
  const std::string request = EncodeEmptyFrame(MsgType::kStatsRequest);
  ASSERT_TRUE(WriteFrame(fd, request + request).ok());
  for (int i = 0; i < 2; ++i) {
    std::string payload;
    Status error;
    ASSERT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &error),
              FrameRead::kFrame)
        << error.ToString();
    MsgType type = MsgType::kError;
    std::string_view body;
    ASSERT_TRUE(DecodeFrameHeader(payload, &type, &body).ok());
    EXPECT_EQ(type, MsgType::kStatsReply);
  }
}

// ---------------------------------------------------------------------
// Replay: the socket answers exactly what the router answers.

TEST(NetReplayTest, WireAnswersAreBitIdenticalToDirectRoute) {
  ServiceOptions opts;
  opts.num_workers = 2;
  auto server = MakeTestServer(opts);

  MultiVenueWorkloadConfig config;
  config.num_requests = 60;
  config.seed = 11;
  config.options.use_snapshot_cache = true;
  std::vector<QueryRequest> workload = ValueOrDie(
      GenerateMultiVenueWorkload(server->service().catalog(), config),
      "GenerateMultiVenueWorkload");

  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  QueryContext ctx;
  for (const QueryRequest& request : workload) {
    const WireReply reply = ValueOrDie(
        client->Query(request, kInf, QosClass::kInteractive), "Query");
    const StatusOr<QueryResult> direct =
        server->service().router().Route(request, &ctx);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_EQ(reply.code, StatusCode::kOk);
    ASSERT_EQ(reply.found, direct->found);
    if (!direct->found) continue;
    // Bit-exact, not approximately-equal: the wire carries the doubles
    // verbatim and the backend is deterministic.
    EXPECT_EQ(reply.length_m, direct->path.length_m());
    EXPECT_EQ(reply.departure_seconds, direct->path.departure_seconds());
    const std::vector<PathStep>& steps = direct->path.steps();
    ASSERT_EQ(reply.steps.size(), steps.size());
    for (size_t i = 0; i < steps.size(); ++i) {
      EXPECT_EQ(reply.steps[i].door, steps[i].door);
      EXPECT_EQ(reply.steps[i].cumulative_m, steps[i].cumulative_m);
      EXPECT_EQ(reply.steps[i].arrival_seconds, steps[i].arrival_seconds);
    }
  }
  server->Stop();
  const NetServerStats net = server->Stats();
  EXPECT_EQ(net.decode_errors, 0u);
  EXPECT_EQ(net.connections_dropped, 0u);
}

// The three query families ride the same socket: every reachable entry
// and every itinerary leg that comes back over a kTemporalReply frame
// is bit-identical to a direct Route() call on the serving shard.
TEST(NetReplayTest, FamilyAnswersOverWireBitIdenticalToDirectRoute) {
  ServiceOptions opts;
  opts.num_workers = 2;
  auto server = MakeTestServer(opts);
  const ItGraph& graph = server->service().catalog().graph(0);

  std::vector<QueryRequest> workload;
  for (QueryKind kind : {QueryKind::kReachability,
                         QueryKind::kNearestFacility, QueryKind::kMultiStop}) {
    FamilyGenConfig config;
    config.kind = kind;
    config.num_queries = 6;
    config.seed = 23 + static_cast<uint64_t>(kind);
    std::vector<QueryRequest> family =
        ValueOrDie(GenerateFamilyQueries(graph, config), "family gen");
    workload.insert(workload.end(), family.begin(), family.end());
  }

  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  QueryContext ctx;
  size_t nonempty = 0;
  for (const QueryRequest& request : workload) {
    const WireReply reply = ValueOrDie(
        client->Query(request, kInf, QosClass::kInteractive), "Query");
    const StatusOr<QueryResult> direct =
        server->service().router().Route(request, &ctx);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_EQ(reply.code, StatusCode::kOk);
    EXPECT_EQ(reply.found, direct->found);

    ASSERT_EQ(reply.reachable.size(), direct->reachable.size());
    for (size_t i = 0; i < direct->reachable.size(); ++i) {
      EXPECT_EQ(reply.reachable[i].door, direct->reachable[i].door);
      EXPECT_EQ(reply.reachable[i].distance_m, direct->reachable[i].distance_m);
      EXPECT_EQ(reply.reachable[i].arrival_seconds,
                direct->reachable[i].arrival_seconds);
    }
    ASSERT_EQ(reply.legs.size(), direct->legs.size());
    for (size_t l = 0; l < direct->legs.size(); ++l) {
      EXPECT_EQ(reply.legs[l].length_m, direct->legs[l].length_m());
      EXPECT_EQ(reply.legs[l].departure_seconds,
                direct->legs[l].departure_seconds());
      const std::vector<PathStep>& steps = direct->legs[l].steps();
      ASSERT_EQ(reply.legs[l].steps.size(), steps.size());
      for (size_t s = 0; s < steps.size(); ++s) {
        EXPECT_EQ(reply.legs[l].steps[s].door, steps[s].door);
        EXPECT_EQ(reply.legs[l].steps[s].cumulative_m, steps[s].cumulative_m);
        EXPECT_EQ(reply.legs[l].steps[s].arrival_seconds,
                  steps[s].arrival_seconds);
      }
    }
    if (!reply.reachable.empty() || !reply.legs.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0u);
  server->Stop();
  EXPECT_EQ(server->Stats().decode_errors, 0u);
}

// A NaN departure fails over the wire exactly like a local Route()
// call would — never a silent found == false. The decoder treats it as
// connection-fatal (structural, not semantic), so each probe needs a
// fresh client.
TEST(NetReplayTest, NanDepartureOverWireFailsLikeLocal) {
  auto server = MakeTestServer();
  const ItGraph& graph = server->service().catalog().graph(0);

  MultiVenueWorkloadConfig p2p_config;
  p2p_config.num_requests = 1;
  p2p_config.seed = 29;
  QueryRequest p2p = ValueOrDie(
      GenerateMultiVenueWorkload(server->service().catalog(), p2p_config),
      "GenerateMultiVenueWorkload")[0];
  p2p.departure = Instant(std::numeric_limits<double>::quiet_NaN());

  FamilyGenConfig family_config;
  family_config.kind = QueryKind::kReachability;
  family_config.num_queries = 1;
  family_config.seed = 31;
  QueryRequest family =
      ValueOrDie(GenerateFamilyQueries(graph, family_config), "family gen")[0];
  family.departure = Instant(std::numeric_limits<double>::quiet_NaN());

  // Both codecs — the kQuery path and the kTemporalQuery path.
  for (const QueryRequest& request : {p2p, family}) {
    auto client =
        ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
    auto reply = client->Query(request, kInf, QosClass::kInteractive);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(reply.status().message().find("departure"), std::string::npos)
        << reply.status().ToString();
  }
  // The malformed frames never reached admission.
  EXPECT_EQ(server->service().Stats().submitted, 0u);
}

// Semantically malformed family parameters (k == 0 here) are per-query
// failures: the reply carries kInvalidArgument and the connection keeps
// serving.
TEST(NetReplayTest, SemanticFamilyErrorsAreReplyNotConnectionFatal) {
  auto server = MakeTestServer();
  const ItGraph& graph = server->service().catalog().graph(0);
  FamilyGenConfig config;
  config.kind = QueryKind::kNearestFacility;
  config.num_queries = 1;
  config.seed = 37;
  QueryRequest request =
      ValueOrDie(GenerateFamilyQueries(graph, config), "family gen")[0];
  request.k = 0;

  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  const WireReply bad = ValueOrDie(
      client->Query(request, kInf, QosClass::kInteractive), "Query");
  EXPECT_EQ(bad.code, StatusCode::kInvalidArgument);
  // Same connection, same query with a legal k: served.
  request.k = 1;
  const WireReply good = ValueOrDie(
      client->Query(request, kInf, QosClass::kInteractive), "Query");
  EXPECT_EQ(good.code, StatusCode::kOk);
  EXPECT_EQ(server->Stats().connections_dropped, 0u);
}

// ---------------------------------------------------------------------
// The QoS overload property: 2x the queue limit offered, all of it
// surviving except the background class, accounting exact.

TEST(NetQosTest, OverloadShedsOnlyLowestClassWithExactAccounting) {
  constexpr size_t kCapacity = 12;
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = kCapacity;
  opts.start_paused = true;  // admission only, until Resume()
  auto server = MakeTestServer(opts);
  QueryService& service = server->service();

  MultiVenueWorkloadConfig config;
  config.num_requests = static_cast<int>(2 * kCapacity);
  config.seed = 13;
  std::vector<QueryRequest> workload =
      ValueOrDie(GenerateMultiVenueWorkload(service.catalog(), config),
                 "GenerateMultiVenueWorkload");

  // Background first: fills the queue to its limit.
  auto background =
      ValueOrDie(NetClient::Connect(server->port()), "connect background");
  for (size_t i = 0; i < kCapacity; ++i) {
    (void)ValueOrDie(
        background->Send(workload[i], kInf, QosClass::kBackground), "Send");
  }
  ASSERT_TRUE(WaitFor([&] {
    ServiceStats s = service.Stats();
    return s.submitted == kCapacity && s.queue_depth == kCapacity;
  })) << "background traffic never filled the queue";

  // 2x overload: a second queue's worth of higher-class traffic. Every
  // arrival finds the queue full and must displace the youngest
  // background request — interactive and batch never shed each other
  // because together they fit exactly.
  auto foreground =
      ValueOrDie(NetClient::Connect(server->port()), "connect foreground");
  for (size_t i = 0; i < kCapacity; ++i) {
    const QosClass qos =
        i < kCapacity / 2 ? QosClass::kInteractive : QosClass::kBatch;
    (void)ValueOrDie(
        foreground->Send(workload[kCapacity + i], kInf, qos), "Send");
  }

  // Every background reply must come back shed; reading them all is
  // also the barrier proving displacement completed.
  for (size_t i = 0; i < kCapacity; ++i) {
    const WireReply reply =
        ValueOrDie(background->ReceiveReply(), "background reply");
    EXPECT_EQ(reply.code, StatusCode::kResourceExhausted) << "reply " << i;
  }

  service.Resume();
  for (size_t i = 0; i < kCapacity; ++i) {
    const WireReply reply =
        ValueOrDie(foreground->ReceiveReply(), "foreground reply");
    EXPECT_EQ(reply.code, StatusCode::kOk) << "reply " << i;
  }

  // The audited ledger over the wire, exactly as the loadgen reads it.
  auto auditor =
      ValueOrDie(NetClient::Connect(server->port()), "connect auditor");
  const WireStats stats = ValueOrDie(auditor->FetchStats(), "FetchStats");
  EXPECT_EQ(stats.submitted, 2 * kCapacity);
  EXPECT_EQ(stats.served, kCapacity);
  EXPECT_EQ(stats.shed, kCapacity);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.timed_out, 0u);
  EXPECT_EQ(stats.served + stats.shed + stats.rejected + stats.timed_out,
            stats.submitted);
  // The shed mass sits entirely in the background class; both higher
  // classes came through unscathed.
  EXPECT_EQ(stats.shed_by_class[0], 0u);
  EXPECT_EQ(stats.shed_by_class[1], 0u);
  EXPECT_EQ(stats.shed_by_class[2], kCapacity);
  EXPECT_EQ(stats.served_by_class[0], kCapacity / 2);
  EXPECT_EQ(stats.served_by_class[1], kCapacity / 2);
  EXPECT_EQ(stats.served_by_class[2], 0u);
}

// One connection pipelines interactive queries (routed inline on the
// reader when the service is idle) and batch queries (always routed by
// a worker): whichever thread finishes first, the replies come back in
// submission order.
TEST(NetReplayTest, PipelinedMixedClassesReplyInSubmissionOrder) {
  auto server = MakeTestServer();
  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  MultiVenueWorkloadConfig config;
  config.num_requests = 64;
  config.seed = 23;
  std::vector<QueryRequest> workload = ValueOrDie(
      GenerateMultiVenueWorkload(server->service().catalog(), config),
      "GenerateMultiVenueWorkload");

  std::vector<uint64_t> ids;
  for (size_t i = 0; i < workload.size(); ++i) {
    const QosClass qos = i % 2 == 0 ? QosClass::kInteractive : QosClass::kBatch;
    ids.push_back(ValueOrDie(client->Send(workload[i], kInf, qos), "Send"));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const WireReply reply = ValueOrDie(client->ReceiveReply(), "ReceiveReply");
    EXPECT_EQ(reply.request_id, ids[i]) << "reply " << i;
    EXPECT_EQ(reply.code, StatusCode::kOk) << "reply " << i;
  }
  const ServiceStats stats = server->service().Stats();
  EXPECT_EQ(stats.served_by_class[0], workload.size() / 2);
  EXPECT_EQ(stats.served_by_class[1], workload.size() / 2);
}

// ---------------------------------------------------------------------
// Control frames.

TEST(NetControlTest, ShutdownFrameAcksAndUnblocksTheServer) {
  auto server = MakeTestServer();
  EXPECT_FALSE(server->shutdown_requested());
  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  ASSERT_TRUE(client->RequestShutdown().ok());
  EXPECT_TRUE(server->shutdown_requested());
  server->WaitForShutdownRequest();  // must not block
  server->Stop();
}

TEST(NetControlTest, StatsFrameReflectsTraffic) {
  auto server = MakeTestServer();
  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  MultiVenueWorkloadConfig config;
  config.num_requests = 8;
  config.seed = 17;
  std::vector<QueryRequest> workload = ValueOrDie(
      GenerateMultiVenueWorkload(server->service().catalog(), config),
      "GenerateMultiVenueWorkload");
  for (const QueryRequest& request : workload) {
    (void)ValueOrDie(client->Query(request, kInf, QosClass::kBatch), "Query");
  }
  const WireStats stats = ValueOrDie(client->FetchStats(), "FetchStats");
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.served, 8u);
  EXPECT_EQ(stats.served_by_class[1], 8u);
}

// ---------------------------------------------------------------------
// Hostile peers. Every scenario must end in a precise kError frame
// (best effort), a dropped connection, and an intact server.

TEST(NetHostileTest, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  NetServerOptions net_opts;
  net_opts.max_frame_bytes = 1024;
  auto server = MakeTestServer(ServiceOptions(), net_opts);
  ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
  const uint32_t huge = 0xFFFFFFFFu;
  std::string bytes(reinterpret_cast<const char*>(&huge), sizeof huge);
  ASSERT_TRUE(WriteFrame(fd.get(), bytes).ok());
  const WireReply err = ReadErrorFrame(fd.get());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.message.find("exceeds limit"), std::string::npos);
  ExpectEof(fd.get());
  EXPECT_TRUE(WaitFor([&] { return server->Stats().connections_dropped == 1; }));
}

TEST(NetHostileTest, ZeroLengthFrameIsRejected) {
  auto server = MakeTestServer();
  ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
  const uint32_t zero = 0;
  ASSERT_TRUE(WriteFrame(fd.get(),
                         std::string(reinterpret_cast<const char*>(&zero),
                                     sizeof zero))
                  .ok());
  const WireReply err = ReadErrorFrame(fd.get());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.message.find("zero-length"), std::string::npos);
  ExpectEof(fd.get());
}

TEST(NetHostileTest, GarbageMessageTypeIsRejected) {
  auto server = MakeTestServer();
  ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
  // A well-formed frame carrying nonsense: type byte 0x2a.
  const uint32_t len = 5;
  std::string bytes(reinterpret_cast<const char*>(&len), sizeof len);
  bytes += "\x2ajunk";
  ASSERT_TRUE(WriteFrame(fd.get(), bytes).ok());
  const WireReply err = ReadErrorFrame(fd.get());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.message.find("message type"), std::string::npos);
  ExpectEof(fd.get());
}

TEST(NetHostileTest, TruncatedQueryBodyIsRejected) {
  auto server = MakeTestServer();
  ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
  // A kQuery frame whose body stops mid-field: take a valid frame and
  // re-declare a shorter payload, sending only that much.
  WireQuery query;
  query.request_id = 1;
  query.deadline_micros = kInf;
  std::string frame = EncodeQueryFrame(query);
  const uint32_t short_len = 9;  // type byte + request_id only
  std::memcpy(&frame[0], &short_len, sizeof short_len);
  frame.resize(sizeof short_len + short_len);
  ASSERT_TRUE(WriteFrame(fd.get(), frame).ok());
  const WireReply err = ReadErrorFrame(fd.get());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.message.find("truncated"), std::string::npos);
  ExpectEof(fd.get());
}

TEST(NetHostileTest, BadQosByteOnTheWireIsRejected) {
  auto server = MakeTestServer();
  ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
  WireQuery query;
  query.request_id = 1;
  query.deadline_micros = 100;
  std::string frame = EncodeQueryFrame(query);
  frame[4 + 1 + 8 + 4] = static_cast<char>(kNumQosClasses);  // qos byte
  ASSERT_TRUE(WriteFrame(fd.get(), frame).ok());
  const WireReply err = ReadErrorFrame(fd.get());
  EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  EXPECT_NE(err.message.find("QoS"), std::string::npos);
  ExpectEof(fd.get());
  // The malformed submission never reached admission.
  EXPECT_EQ(server->service().Stats().submitted, 0u);
}

TEST(NetHostileTest, MidFrameDisconnectIsCountedAndSurvived) {
  auto server = MakeTestServer();
  {
    ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
    const uint32_t len = 100;
    std::string bytes(reinterpret_cast<const char*>(&len), sizeof len);
    bytes += "\x01only-ten";  // 9 of the promised 100 bytes
    ASSERT_TRUE(WriteFrame(fd.get(), bytes).ok());
  }  // destructor closes mid-frame
  EXPECT_TRUE(WaitFor([&] { return server->Stats().connections_dropped == 1; }));
  // The server is still fully alive for well-behaved clients.
  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  EXPECT_TRUE(client->FetchStats().ok());
}

TEST(NetHostileTest, SlowLorisMidFrameIsDroppedButIdleIsKept) {
  NetServerOptions net_opts;
  net_opts.recv_timeout_seconds = 0.2;
  auto server = MakeTestServer(ServiceOptions(), net_opts);

  // Idle BETWEEN frames far past the guard window: the connection must
  // survive and still answer.
  auto idle_client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_TRUE(idle_client->FetchStats().ok())
      << "idle connection was dropped by the slow-loris guard";

  // Stalling MID-frame trips the guard: send half a length prefix and
  // nothing more.
  ScopedFd loris = ValueOrDie(ConnectLoopback(server->port()), "connect");
  ASSERT_TRUE(WriteFrame(loris.get(), std::string("\x08\x00", 2)).ok());
  const WireReply err = ReadErrorFrame(loris.get());
  EXPECT_EQ(err.code, StatusCode::kDeadlineExceeded);
  EXPECT_NE(err.message.find("slow-loris"), std::string::npos);
  ExpectEof(loris.get());
  EXPECT_TRUE(WaitFor([&] { return server->Stats().connections_dropped == 1; }));
}

// The guard is a per-frame deadline, not a per-recv one: a peer that
// trickles one byte every half window never lets a single recv time out,
// yet its frame is still cut off once the window from its first byte
// runs out.
TEST(NetHostileTest, TricklingPeerIsDroppedAtTheFrameDeadline) {
  NetServerOptions net_opts;
  net_opts.recv_timeout_seconds = 0.2;
  auto server = MakeTestServer(ServiceOptions(), net_opts);

  ScopedFd loris = ValueOrDie(ConnectLoopback(server->port()), "connect");
  // Bound this side's wait so a server that never drops the peer fails
  // the test instead of hanging it.
  ASSERT_TRUE(SetRecvTimeout(loris.get(), 2.0).ok());
  const auto start = std::chrono::steady_clock::now();
  const uint32_t len = 100;
  ASSERT_TRUE(
      WriteFrame(loris.get(),
                 std::string(reinterpret_cast<const char*>(&len), sizeof len))
          .ok());
  std::atomic<bool> stop{false};
  std::thread trickler([&] {
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (stop.load() || !WriteFrame(loris.get(), "x").ok()) return;
    }
  });
  const WireReply err = ReadErrorFrame(loris.get());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stop.store(true);
  trickler.join();

  EXPECT_EQ(err.code, StatusCode::kDeadlineExceeded);
  EXPECT_NE(err.message.find("slow-loris"), std::string::npos);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  ExpectEof(loris.get());
  EXPECT_TRUE(WaitFor([&] { return server->Stats().connections_dropped == 1; }));
}

// A peer that pipelines thousands of queries and never reads its
// replies fills its socket. The threads that complete its queries must
// not block on that socket: with one worker, the flood keeps being
// served and a second connection's interactive query is answered
// promptly while the peer is still connected, and the peer is dropped
// once its replies have sat unsent for the guard window. Whole-venue
// reachability replies list every door, so half of the 4096 already
// overrun the kernel's socket buffers (loopback starts a send buffer at
// megabytes) as well as the server's outbox cap.
TEST(NetHostileTest, StalledReaderCannotPinAWorker) {
  ServiceOptions service_opts;
  service_opts.num_workers = 1;
  service_opts.queue_capacity = 4096;  // admit the whole flood
  NetServerOptions net_opts;
  net_opts.recv_timeout_seconds = 3;
  auto server = MakeTestServer(service_opts, net_opts);
  FamilyGenConfig family;
  family.kind = QueryKind::kReachability;
  family.num_queries = 64;
  family.min_departure_seconds = 10 * 3600;
  family.max_departure_seconds = 18 * 3600;
  family.min_budget_seconds = 1800;
  std::vector<QueryRequest> flood_queries = ValueOrDie(
      GenerateFamilyQueries(server->service().catalog().graph(0), family),
      "GenerateFamilyQueries");
  MultiVenueWorkloadConfig config;
  config.num_requests = 1;
  config.seed = 29;
  const QueryRequest probe = ValueOrDie(
      GenerateMultiVenueWorkload(server->service().catalog(), config),
      "GenerateMultiVenueWorkload")[0];
  // The probe's latency bound comes from this build's time to route the
  // slowest kMaxBatch of flood queries. The one worker finishes the
  // batch in flight, then takes the probe first in its next batch
  // (interactive before batch class) and delivers its reply as soon as
  // it is routed: one batch plus one route. A second batch, plus 20 ms,
  // covers that route, the round trip and the flood's reader thread
  // competing for the cores (sanitizer builds).
  QueryContext context;
  std::chrono::steady_clock::duration slowest_batch{};
  for (size_t b = 0; b < flood_queries.size(); b += kMaxBatch) {
    const auto begin = std::chrono::steady_clock::now();
    for (size_t i = b; i < std::min(b + kMaxBatch, flood_queries.size());
         ++i) {
      ASSERT_TRUE(
          server->service().router().Route(flood_queries[i], &context).ok());
    }
    slowest_batch =
        std::max(slowest_batch, std::chrono::steady_clock::now() - begin);
  }
  const auto probe_bound = 2 * slowest_batch + std::chrono::milliseconds(20);
  const auto micros = [](std::chrono::steady_clock::duration d) {
    return std::to_string(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  };
  RecordProperty("probe_bound_us", micros(probe_bound));

  // A small receive buffer, set before connect, so replies back up fast.
  ScopedFd stalled(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(stalled.valid());
  int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(stalled.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof rcvbuf),
            0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(stalled.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const auto start = std::chrono::steady_clock::now();
  std::thread flood([&] {
    for (uint64_t i = 0; i < 4096; ++i) {
      const std::string frame = EncodeTemporalQueryFrame(FromQueryRequest(
          flood_queries[i % flood_queries.size()], i + 1, QosClass::kBatch,
          kInf));
      if (!WriteFrame(stalled.get(), frame).ok()) return;  // dropped
    }
  });
  // Runs on every exit, failed assertions included: hanging up unblocks
  // the flood and anything the server has stuck on this socket.
  struct HangUp {
    int fd;
    std::thread* flood;
    ~HangUp() {
      ::shutdown(fd, SHUT_RDWR);
      flood->join();
    }
  } hang_up{stalled.get(), &flood};
  // Half the flood served, its replies stuck: a worker that blocked in
  // send would still be parked there, waiting for the guard.
  ASSERT_TRUE(WaitFor([&] { return server->service().Stats().served >= 2048; }))
      << "the flood was never served";
  EXPECT_EQ(server->Stats().connections_dropped, 0u)
      << "served only once the stalled peer was dropped";

  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  const auto asked = std::chrono::steady_clock::now();
  const WireReply reply = ValueOrDie(
      client->Query(probe, kInf, QosClass::kInteractive), "Query");
  const auto probe_latency = std::chrono::steady_clock::now() - asked;
  EXPECT_EQ(reply.code, StatusCode::kOk);
  EXPECT_EQ(server->Stats().connections_dropped, 0u)
      << "the probe was answered only once the stalled peer was dropped";
  EXPECT_LT(probe_latency, probe_bound);
  RecordProperty("probe_latency_us", micros(probe_latency));

  EXPECT_TRUE(
      WaitFor([&] { return server->Stats().connections_dropped == 1; }))
      << "the stalled peer was never dropped";
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(8));
}

// ---------------------------------------------------------------------
// The idle reader's spin: it polls for a quick peer's next frame before
// it parks, and must end exactly as the blocking read would.

// A peer that hangs up right after its replies closes while its reader
// spins: a clean close, so the connection is reaped and nothing counts
// as a decode error or a drop.
TEST(NetSpinTest, HangUpInsideTheSpinWindowIsReaped) {
  auto server = MakeTestServer();
  const size_t before = CountOpenFds();
  for (int i = 0; i < 8; ++i) {
    ScopedFd fd = ValueOrDie(ConnectLoopback(server->port()), "connect");
    TwoStatsRoundTrips(fd.get());
  }  // each hangs up the moment it has its second reply
  EXPECT_LE(OpenFdsAfterReaping(*server, before), before + 3);
  const NetServerStats stats = server->Stats();
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.connections_dropped, 0u);
}

// A length prefix that arrives while the reader spins starts the frame
// deadline just as it would for a parked reader: the stalled peer is
// dropped once recv_timeout_seconds pass, not sooner and not never.
TEST(NetSpinTest, PrefixInsideTheSpinWindowStillTripsTheDeadline) {
  NetServerOptions net_opts;
  net_opts.recv_timeout_seconds = 0.2;
  auto server = MakeTestServer(ServiceOptions(), net_opts);
  ScopedFd loris = ValueOrDie(ConnectLoopback(server->port()), "connect");
  ASSERT_TRUE(SetRecvTimeout(loris.get(), 2.0).ok());
  TwoStatsRoundTrips(loris.get());
  const auto start = std::chrono::steady_clock::now();
  const uint32_t len = 100;
  ASSERT_TRUE(
      WriteFrame(loris.get(),
                 std::string(reinterpret_cast<const char*>(&len), sizeof len))
          .ok());
  const WireReply err = ReadErrorFrame(loris.get());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(err.code, StatusCode::kDeadlineExceeded);
  EXPECT_NE(err.message.find("slow-loris"), std::string::npos);
  EXPECT_GE(elapsed, std::chrono::milliseconds(150));
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  ExpectEof(loris.get());
  EXPECT_TRUE(WaitFor([&] { return server->Stats().connections_dropped == 1; }));
}

// Requests in back-to-back pairs with pauses far beyond the window in
// between: each pair's second request arrives at once, so the reader
// then spins, in vain, and parks for the rest of the pause. Every reply
// still comes back, in order.
TEST(NetSpinTest, SpacedRequestsParkTheReaderAndAllReplyInOrder) {
  auto server = MakeTestServer();
  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  MultiVenueWorkloadConfig config;
  config.num_requests = 16;
  config.seed = 31;
  std::vector<QueryRequest> workload = ValueOrDie(
      GenerateMultiVenueWorkload(server->service().catalog(), config),
      "GenerateMultiVenueWorkload");
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < workload.size(); ++i) {
    ids.push_back(ValueOrDie(
        client->Send(workload[i], kInf, QosClass::kInteractive), "Send"));
    if (i % 2 == 1) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const WireReply reply = ValueOrDie(client->ReceiveReply(), "ReceiveReply");
    EXPECT_EQ(reply.request_id, ids[i]) << "reply " << i;
    EXPECT_EQ(reply.code, StatusCode::kOk) << "reply " << i;
  }
  EXPECT_EQ(server->service().Stats().served, workload.size());
  EXPECT_EQ(server->Stats().decode_errors, 0u);
}

// A reader owed a reply keeps reading: with dispatch paused the first
// query stays owed, yet a second one sent behind it is admitted before
// Resume(), and both replies then come back in order.
TEST(NetSpinTest, FrameBehindAnOwedReplyIsAdmittedAtOnce) {
  ServiceOptions opts;
  opts.start_paused = true;
  auto server = MakeTestServer(opts);
  QueryService& service = server->service();
  auto client =
      ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
  MultiVenueWorkloadConfig config;
  config.num_requests = 2;
  config.seed = 37;
  std::vector<QueryRequest> workload =
      ValueOrDie(GenerateMultiVenueWorkload(service.catalog(), config),
                 "GenerateMultiVenueWorkload");
  std::vector<uint64_t> ids;
  ids.push_back(ValueOrDie(
      client->Send(workload[0], kInf, QosClass::kInteractive), "Send"));
  ASSERT_TRUE(WaitFor([&] { return service.Stats().submitted == 1; }));
  ids.push_back(ValueOrDie(
      client->Send(workload[1], kInf, QosClass::kInteractive), "Send"));
  EXPECT_TRUE(WaitFor([&] { return service.Stats().submitted == 2; }));
  EXPECT_EQ(service.Stats().served, 0u);
  service.Resume();
  for (size_t i = 0; i < ids.size(); ++i) {
    const WireReply reply = ValueOrDie(client->ReceiveReply(), "ReceiveReply");
    EXPECT_EQ(reply.request_id, ids[i]) << "reply " << i;
    EXPECT_EQ(reply.code, StatusCode::kOk) << "reply " << i;
  }
  EXPECT_EQ(server->Stats().decode_errors, 0u);
}

// Each client that hangs up is reaped on a later accept: 32 sequential
// connect/close cycles leave the process holding only a small constant
// number of extra fds, not one per departed client.
TEST(NetChurnTest, ClosedConnectionsAreReaped) {
  auto server = MakeTestServer();
  const size_t before = CountOpenFds();
  for (int i = 0; i < 32; ++i) {
    auto client =
        ValueOrDie(NetClient::Connect(server->port()), "NetClient::Connect");
    ASSERT_TRUE(client->FetchStats().ok()) << "cycle " << i;
  }
  EXPECT_LE(OpenFdsAfterReaping(*server, before), before + 3);
  EXPECT_GE(server->Stats().connections_accepted, 33u);
}

}  // namespace
}  // namespace net
}  // namespace itspq
