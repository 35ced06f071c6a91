#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>

#include "artifact/artifact.h"
#include "gen/query_gen.h"
#include "gen/workload_gen.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "query/sharded_router.h"
#include "query/venue_catalog.h"
#include "server/query_service.h"
#include "update/versioned_graph.h"

namespace perfbench {
namespace {

using itspq::QosClass;
using itspq::QueryKind;
using itspq::QueryRequest;
using itspq::ServiceStats;
using itspq::StatusCode;
using itspq::TimedAtiUpdate;
using itspq::Venue;
using itspq::VenueCatalog;
using itspq::VenueId;

/// Distinct requests per workload; the timed window replays the list.
constexpr size_t kListSize = 2048;
/// Traced runs: requests replayed in-process through Submit and Route.
constexpr size_t kReplaySize = 1024;
/// Traced runs: direct Route calls per query kind.
constexpr size_t kKindProbeSize = 512;
/// kLive: requests per updated venue replayed after the run against a
/// from-scratch rebuild at the venue's final ATIs.
constexpr size_t kFinalSamplePerVenue = 16;
/// Span request ids: queries use [0, kUpdateIds), updates, artifact
/// loads and whole-service calls their own ranges.
constexpr uint32_t kUpdateIds = 1u << 24;
constexpr uint32_t kArtifactIds = 1u << 25;
constexpr uint32_t kServiceId = 1u << 26;
constexpr double kRecvTimeoutSeconds = 30;
constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr uint8_t kNoReply = 255;
/// A reply's venue took an update while the request was in flight, so
/// the epoch that answered it is not known.
constexpr uint32_t kEpochUnknown = std::numeric_limits<uint32_t>::max();

enum class Shape { kInteractive, kBatch, kLive, kCold };

/// Everything a workload fixes besides the seed.
struct Plan {
  Shape shape = Shape::kInteractive;
  itspq::FleetConfig fleet;
  /// Strategies rotated over venue ids.
  std::vector<std::string> strategies = {"itg-a+"};
  const std::string& Strategy(size_t venue) const {
    return strategies[venue % strategies.size()];
  }
  /// Sizes the timed window: seconds * nominal_qps requests.
  double nominal_qps = 2400;
  QosClass qos = QosClass::kInteractive;
  double deadline_us = 50'000;
  int connections = 1;
  /// Requests kept outstanding per connection; 1 is a closed loop.
  size_t window = 1;
  /// kLive: updates per second offered through SubmitUpdate.
  double update_ups = 0;
  /// kCold: LRU residency budget as a share of the fully resident fleet.
  double residency_share = 0;
  /// Set-ups per run before the timed window, and as many again after
  /// it; setup_s is the fastest of them (see SetUpRepeats).
  int setups = 20;
};

Plan MakePlan(const std::string& name, uint64_t seed) {
  Plan plan;
  plan.fleet.seed = seed;
  plan.fleet.min_floors = 1;
  plan.fleet.max_floors = 3;
  plan.fleet.num_venues = 384;
  if (name == "batch_families") {
    plan.shape = Shape::kBatch;
    // Paper-size malls: five floors of four shop rows.
    plan.fleet.num_venues = 16;
    plan.fleet.min_floors = plan.fleet.max_floors = 5;
    plan.fleet.min_shop_rows = plan.fleet.max_shop_rows = 4;
    plan.strategies = {"itg-s", "itg-a", "itg-a+"};
    plan.nominal_qps = 9000;
    plan.qos = QosClass::kBatch;
    plan.deadline_us = kInfinity;
    plan.connections = 2;
    plan.window = 16;  // 32 outstanding = half the deployed queue of 64
    plan.setups = 40;
  } else if (name == "live_updates") {
    plan.shape = Shape::kLive;
    plan.update_ups = 100;
  } else if (name == "cold_fleet") {
    plan.shape = Shape::kCold;
    plan.fleet.num_venues = 256;
    plan.nominal_qps = 1400;
    plan.residency_share = 0.25;
    plan.setups = 100;
  }
  return plan;
}

/// The ServiceOptions itspq_server deploys.
itspq::ServiceOptions DeployedOptions() {
  itspq::ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  return options;
}

const char* KindLabel(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPointToPoint:
      return "p2p";
    case QueryKind::kReachability:
      return "reachability";
    case QueryKind::kNearestFacility:
      return "knn";
    case QueryKind::kMultiStop:
      return "multistop";
  }
  return "unknown";
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// One timed pass of traffic over the socket.
struct Window {
  size_t first = 0;  // list index of sample 0
  size_t count = 0;
  std::vector<double> latency_us;
  std::vector<uint64_t> digest;
  std::vector<uint8_t> code;  // wire status code, kNoReply if none came
  std::vector<uint8_t> found;
  /// The venue epoch that answered each request: 0 without an update
  /// stream, kEpochUnknown when an update raced the request (kLive).
  std::vector<uint32_t> epoch;
  size_t reply_bytes = 0;
  double client_cpu_us = 0;
  double cpu_us = 0;  // process user + system CPU over the window
  double seconds = 0;
  uint64_t steal = 0;
  std::vector<std::string> transport_errors;
  ServiceStats before, after;
  /// Updates submitted during the window (kLive).
  std::vector<double> update_us;
  std::vector<double> update_late_us;
  size_t update_failures = 0;

  size_t Replies() const {
    return static_cast<size_t>(
        std::count_if(code.begin(), code.end(),
                      [](uint8_t c) { return c != kNoReply; }));
  }
  size_t Ok() const {
    return static_cast<size_t>(std::count(code.begin(), code.end(), 0));
  }
  std::vector<double> Latencies() const {
    std::vector<double> out;
    out.reserve(count);
    for (size_t s = 0; s < count; ++s) {
      if (code[s] != kNoReply) out.push_back(latency_us[s]);
    }
    return out;
  }
};

size_t BatchedRequests(const ServiceStats& s) {
  size_t total = 0;
  for (size_t b = 0; b < s.batch_size_counts.size(); ++b) {
    total += b * s.batch_size_counts[b];
  }
  return total;
}
/// Snapshot-store counters accrued between two reports. A store lives
/// as long as its shard's epoch and residency: a shard that took an
/// update or was (re)loaded in between has a new store, whose counters
/// all accrued since `before`; one evicted at the end has none left.
itspq::CacheStatsSnapshot CacheDelta(const ServiceStats& before,
                                     const ServiceStats& after) {
  itspq::CacheStatsSnapshot delta;
  const auto& b = before.catalog.shards;
  const auto& a = after.catalog.shards;
  for (size_t i = 0; i < a.size(); ++i) {
    itspq::CacheStatsSnapshot d = a[i].cache;
    if (i < b.size() && a[i].epoch == b[i].epoch &&
        a[i].loads == b[i].loads && a[i].resident && b[i].resident) {
      const itspq::CacheStatsSnapshot& o = b[i].cache;
      d.hits -= o.hits;
      d.misses -= o.misses;
      d.full_builds -= o.full_builds;
      d.delta_builds -= o.delta_builds;
    }
    delta.hits += d.hits;
    delta.misses += d.misses;
    delta.full_builds += d.full_builds;
    delta.delta_builds += d.delta_builds;
  }
  return delta;
}

size_t RebasedSnapshots(const ServiceStats& s) {
  size_t total = 0;
  for (const itspq::ShardStats& shard : s.catalog.shards) {
    total += shard.update_snapshots_rebased;
  }
  return total;
}

/// What one client connection of a window saw besides its replies.
struct Connection {
  explicit Connection(bool traced) : tracer(traced) {}
  Tracer tracer;
  std::string error;  // empty unless the transport failed
  double cpu_us = 0;  // the connection thread's CPU
  size_t reply_bytes = 0;
};

class Bench {
 public:
  Bench(const Args& args, RunResult* result)
      : args_(args),
        plan_(MakePlan(args.workload, args.seed)),
        result_(result),
        tracer_(args.trace) {}
  /// The packed fleet is input for this run only; a checkout runs the
  /// benchmark dozens of times with different seeds.
  ~Bench() {
    if (!artifact_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(artifact_dir_, ec);
    }
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  void Run();

 private:
  itspq::QueryService& service() { return server_->service(); }

  bool Check(const itspq::Status& status, const std::string& what) {
    if (!status.ok()) result_->Fail(what + ": " + status.ToString());
    return status.ok();
  }

  bool GenerateFleet(std::vector<Venue>* fleet);
  bool PackArtifacts(const std::vector<Venue>& fleet);
  bool SetUpOnce(const std::vector<Venue>& fleet,
                 std::unique_ptr<itspq::net::NetServer>* server);
  bool SetUpRepeats(bool keep_last);
  bool GenerateTraffic(const VenueCatalog& catalog);
  Window Drive(size_t first, size_t count, size_t update_first,
               size_t update_count, bool traced);
  void DriveConnection(int connection, Window* w, Connection* out);
  void DriveUpdates(int64_t start_ns, size_t first, size_t count, Window* w,
                    Tracer* tracer);
  void ComputeTruth();
  void CheckWindow(const Window& w);
  void CheckRebuild();
  std::vector<uint64_t> ServeOverSocket(const std::vector<size_t>& list);
  void CheckAccounting();
  void AddEndToEnd(const Window& w);
  void AddPerLayer(const Window& a, const Window& b);
  std::vector<QueryRequest> KindProbe(QueryKind kind);
  double ReplayService(const Window& b, std::vector<double>* service_us,
                       std::vector<double>* route_us);
  double ShadowApplyP50();

  const Args args_;
  const Plan plan_;
  RunResult* result_;
  Tracer tracer_;

  std::unique_ptr<itspq::net::NetServer> server_;
  std::vector<double> setup_s_;
  std::vector<double> catalog_us_;
  /// Requests the benchmark submitted to the service, all paths.
  size_t submitted_ = 0;

  std::vector<QueryRequest> requests_;
  std::vector<itspq::net::WireQuery> wire_;
  /// Digest of each list request's answer before any update.
  std::vector<uint64_t> truth_;
  /// kLive: replies answered at a venue epoch > 0, checked by
  /// CheckRebuild against a rebuild at that epoch.
  struct EpochReply {
    VenueId venue;
    uint32_t epoch;
    uint32_t request;  // list index
    uint64_t digest;
  };
  std::vector<EpochReply> epoch_replies_;

  /// kLive: the update stream and, per venue, how many of its updates
  /// the update thread has begun and finished submitting.
  std::vector<TimedAtiUpdate> updates_;
  std::vector<bool> update_ok_;
  std::vector<double> update_us_;
  std::unique_ptr<std::atomic<uint32_t>[]> updates_started_;
  std::unique_ptr<std::atomic<uint32_t>[]> updates_done_;

  /// kCold.
  std::string artifact_dir_;
  std::vector<std::string> artifacts_;
  size_t residency_budget_ = 0;
  std::vector<double> artifact_load_us_;
  double artifact_bytes_per_venue_ = 0;

  double peak_rss_mb_ = 0;
};

bool Bench::GenerateFleet(std::vector<Venue>* fleet) {
  auto generated = itspq::GenerateVenueFleet(plan_.fleet);
  if (!Check(generated.status(), "GenerateVenueFleet")) return false;
  *fleet = *std::move(generated);
  return true;
}

// Packs the fleet as itspq_build does, then loads every artifact once:
// the fully resident size sets the residency budget, and the load
// times are the artifact layer's numbers.
bool Bench::PackArtifacts(const std::vector<Venue>& fleet) {
  artifact_dir_ = args_.work_dir + "/cold-seed" + std::to_string(args_.seed);
  std::error_code ec;
  std::filesystem::remove_all(artifact_dir_, ec);
  std::filesystem::create_directories(artifact_dir_, ec);
  if (ec) {
    result_->Fail("cannot create " + artifact_dir_ + ": " + ec.message());
    return false;
  }
  size_t file_bytes = 0;
  for (size_t v = 0; v < fleet.size(); ++v) {
    char name[48];
    std::snprintf(name, sizeof name, "/venue_%04zu.itspq", v);
    artifacts_.push_back(artifact_dir_ + name);
    if (!Check(itspq::WriteVenueArtifact(artifacts_.back(), fleet[v]),
               "WriteVenueArtifact")) {
      return false;
    }
    file_bytes += std::filesystem::file_size(artifacts_.back(), ec);
  }
  artifact_bytes_per_venue_ =
      static_cast<double>(file_bytes) / static_cast<double>(fleet.size());
  size_t resident = 0;
  for (size_t v = 0; v < artifacts_.size(); ++v) {
    const int64_t t0 = NowNs();
    auto loaded = itspq::LoadVenueArtifact(artifacts_[v]);
    if (!Check(loaded.status(), "LoadVenueArtifact")) return false;
    itspq::RouterBuildOptions options;
    options.bound_venue_id = static_cast<VenueId>(v);
    auto world = itspq::BuildWorldFromArtifact(
        *std::move(loaded), plan_.strategies[0], options);
    const int64_t t1 = NowNs();
    if (!Check(world.status(), "BuildWorldFromArtifact")) return false;
    artifact_load_us_.push_back(Us(t1 - t0));
    tracer_.Add("artifact.load", t0, t1, -1,
                kArtifactIds + static_cast<uint32_t>(v));
    resident += (*world)->MemoryUsage();
  }
  residency_budget_ = std::max<size_t>(
      1, static_cast<size_t>(plan_.residency_share *
                             static_cast<double>(resident)));
  return true;
}

// One set-up: catalog build (or artifact registration), then the
// service and the loopback server. Only these are timed; copying the
// generated fleet is input preparation.
bool Bench::SetUpOnce(const std::vector<Venue>& fleet,
                      std::unique_ptr<itspq::net::NetServer>* server) {
  std::vector<Venue> venues;
  if (plan_.shape != Shape::kCold) venues = fleet;
  const int64_t t0 = NowNs();
  VenueCatalog catalog;
  const size_t n = static_cast<size_t>(plan_.fleet.num_venues);
  for (size_t v = 0; v < n; ++v) {
    auto id = plan_.shape == Shape::kCold
                  ? catalog.AddArtifactShard(artifacts_[v], plan_.Strategy(v))
                  : catalog.AddVenue(std::move(venues[v]), plan_.Strategy(v));
    if (!Check(id.status(), "catalog registration")) return false;
  }
  if (plan_.shape == Shape::kCold &&
      !Check(catalog.SetResidencyBudget(residency_budget_, "lru"),
             "SetResidencyBudget")) {
    return false;
  }
  const int64_t t1 = NowNs();
  tracer_.Add("query.catalog_build", t0, t1, -1, kServiceId);
  auto service = itspq::MakeQueryService(std::move(catalog), DeployedOptions());
  if (!Check(service.status(), "MakeQueryService")) return false;
  auto started = itspq::net::MakeNetServer(std::move(*service));
  if (!Check(started.status(), "MakeNetServer")) return false;
  const int64_t t2 = NowNs();
  setup_s_.push_back(static_cast<double>(t2 - t0) / 1e9);
  catalog_us_.push_back(Us(t1 - t0));
  *server = *std::move(started);
  return true;
}

// plan_.setups set-ups of a freshly generated fleet. The one served is
// the last of the repeats before the timed window (`keep_last`); the
// repeats after the window are dropped at once. On a shared VM the same
// set-up runs up to 2x slower for seconds at a time, so setup_s is the
// fastest repeat, and the repeats are split between the start and the
// end of the run to meet a quiet spell.
bool Bench::SetUpRepeats(bool keep_last) {
  std::vector<Venue> fleet;
  if (plan_.shape != Shape::kCold && !GenerateFleet(&fleet)) return false;
  for (int i = 0; i < plan_.setups; ++i) {
    std::unique_ptr<itspq::net::NetServer> server;
    if (!SetUpOnce(fleet, &server)) return false;
    if (keep_last && i + 1 == plan_.setups) server_ = std::move(server);
  }
  return true;
}

bool Bench::GenerateTraffic(const VenueCatalog& catalog) {
  const uint64_t seed = args_.seed;
  if (plan_.shape == Shape::kBatch) {
    // A shuffled mix of the three temporal families over every venue,
    // departing during opening hours.
    const QueryKind kinds[] = {QueryKind::kReachability,
                               QueryKind::kNearestFacility,
                               QueryKind::kMultiStop};
    const size_t per = kListSize / (catalog.NumVenues() * 3) + 1;
    for (size_t v = 0; v < catalog.NumVenues(); ++v) {
      for (size_t k = 0; k < 3; ++k) {
        itspq::FamilyGenConfig config;
        config.kind = kinds[k];
        config.num_queries = static_cast<int>(per);
        config.seed = seed * 7919 + v * 3 + k;
        config.min_departure_seconds = 8 * 3600;
        config.max_departure_seconds = 21 * 3600;
        auto queries =
            itspq::GenerateFamilyQueries(catalog.graph(static_cast<VenueId>(v)),
                                         config);
        if (!Check(queries.status(), "GenerateFamilyQueries")) return false;
        for (QueryRequest& q : *queries) {
          q.venue_id = static_cast<VenueId>(v);
          q.options.use_snapshot_cache = true;
          requests_.push_back(std::move(q));
        }
      }
    }
    std::mt19937_64 rng(seed + 1);
    std::shuffle(requests_.begin(), requests_.end(), rng);
    requests_.resize(kListSize);
  } else {
    itspq::MultiVenueWorkloadConfig config;
    config.num_requests = static_cast<int>(kListSize);
    config.seed = seed + 1;
    config.pairs_per_venue = 4;
    config.options.use_snapshot_cache = true;
    auto workload = itspq::GenerateMultiVenueWorkload(catalog, config);
    if (!Check(workload.status(), "GenerateMultiVenueWorkload")) return false;
    requests_ = *std::move(workload);
  }
  for (size_t i = 0; i < requests_.size(); ++i) {
    wire_.push_back(itspq::net::FromQueryRequest(requests_[i], 0, plan_.qos,
                                                 plan_.deadline_us));
  }

  if (plan_.shape != Shape::kLive) return true;
  itspq::UpdateStreamConfig config;
  config.num_updates = static_cast<int>(
      std::lround(plan_.update_ups * static_cast<double>(args_.seconds)));
  config.offered_ups = plan_.update_ups;
  config.seed = seed + 2;
  auto stream = itspq::GenerateUpdateStream(catalog, config);
  if (!Check(stream.status(), "GenerateUpdateStream")) return false;
  updates_ = *std::move(stream);
  update_ok_.assign(updates_.size(), false);
  const size_t venues = catalog.NumVenues();
  updates_started_.reset(new std::atomic<uint32_t>[venues]);
  updates_done_.reset(new std::atomic<uint32_t>[venues]);
  for (size_t v = 0; v < venues; ++v) {
    updates_started_[v].store(0);
    updates_done_[v].store(0);
  }
  return true;
}

std::string EncodeFrame(const itspq::net::WireQuery& query) {
  return query.kind == QueryKind::kPointToPoint
             ? itspq::net::EncodeQueryFrame(query)
             : itspq::net::EncodeTemporalQueryFrame(query);
}

itspq::Status DecodeReplyFrame(const std::string& payload,
                               itspq::net::WireReply* reply) {
  namespace net = itspq::net;
  net::MsgType type;
  std::string_view body;
  itspq::Status status = net::DecodeFrameHeader(payload, &type, &body);
  *reply = net::WireReply();
  if (!status.ok()) return status;
  if (type == net::MsgType::kQueryReply) {
    return net::DecodeReplyBody(body, reply);
  }
  if (type == net::MsgType::kTemporalReply) {
    return net::DecodeTemporalReplyBody(body, reply);
  }
  return itspq::Status(StatusCode::kFailedPrecondition,
                       "unexpected frame type " +
                           std::to_string(static_cast<int>(type)));
}

// One connection's share of a window: samples connection, connection +
// stride, ... with up to plan_.window in flight. It speaks the wire
// through the codec and socket functions rather than NetClient so that
// encode and decode can be timed on the path every request takes.
void Bench::DriveConnection(int connection, Window* w, Connection* out) {
  namespace net = itspq::net;
  const double cpu0 = ThreadCpuUs();
  auto fd = net::ConnectLoopback(server_->port());
  if (!fd.ok()) {
    out->error = "connect: " + fd.status().ToString();
    return;
  }
  (void)net::SetRecvTimeout(fd->get(), kRecvTimeoutSeconds);
  const size_t stride = static_cast<size_t>(plan_.connections);
  const bool live = plan_.shape == Shape::kLive;
  std::vector<int64_t> sent_ns(w->count), encoded_ns(w->count);
  std::deque<size_t> outstanding;
  net::WireQuery query;
  net::WireReply reply;
  std::string payload;
  size_t next = static_cast<size_t>(connection);
  for (;;) {
    while (outstanding.size() < plan_.window && next < w->count) {
      const size_t s = next;
      next += stride;
      const int64_t t0 = NowNs();
      query = wire_[(w->first + s) % wire_.size()];
      query.request_id = s + 1;
      const std::string frame = EncodeFrame(query);
      const int64_t t1 = NowNs();
      // Updates this venue had committed before the request left.
      if (live) w->epoch[s] = updates_done_[query.venue_id].load();
      itspq::Status sent = net::WriteFrame(fd->get(), frame);
      if (!sent.ok()) {
        out->error = "send: " + sent.ToString();
        return;
      }
      sent_ns[s] = t0;
      encoded_ns[s] = t1;
      outstanding.push_back(s);
    }
    if (outstanding.empty()) break;
    const size_t s = outstanding.front();
    outstanding.pop_front();
    itspq::Status status;
    const net::FrameRead read =
        net::ReadFrame(fd->get(), net::kDefaultMaxFrameBytes, &payload,
                       &status);
    const int64_t t2 = NowNs();
    if (read != net::FrameRead::kFrame) {
      out->error = "no reply to request " + std::to_string(s + 1) + ": " +
                   status.ToString();
      return;
    }
    if (live) {
      // Answered at a known epoch only if no update of the venue started
      // while the request was out: every update begun by now has been
      // committed, and was committed before the request left.
      const VenueId venue = wire_[(w->first + s) % wire_.size()].venue_id;
      if (updates_started_[venue].load() != w->epoch[s]) {
        w->epoch[s] = kEpochUnknown;
      }
    }
    status = DecodeReplyFrame(payload, &reply);
    const int64_t t3 = NowNs();
    if (!status.ok() || reply.request_id != s + 1) {
      out->error = "bad reply to request " + std::to_string(s + 1) + ": " +
                   status.ToString();
      return;
    }
    w->latency_us[s] = Us(t3 - sent_ns[s]);
    w->code[s] = itspq::StatusCodeToWire(reply.code);
    w->found[s] = reply.found ? 1 : 0;
    w->digest[s] = ReplyDigest(reply);
    out->reply_bytes += payload.size() + 4;
    Tracer& tracer = out->tracer;
    if (tracer.enabled()) {
      // The request span runs on to here, so its self time is the
      // caller's own bookkeeping after the reply.
      const uint32_t id = static_cast<uint32_t>(s);
      const int32_t root =
          tracer.Add("client.request", sent_ns[s], NowNs(), -1, id);
      tracer.Add("net.encode", sent_ns[s], encoded_ns[s], root, id);
      tracer.Add("net.roundtrip", encoded_ns[s], t2, root, id);
      tracer.Add("net.decode", t2, t3, root, id);
    }
  }
  out->cpu_us = ThreadCpuUs() - cpu0;
}

void Bench::DriveUpdates(int64_t start_ns, size_t first, size_t count,
                         Window* w, Tracer* tracer) {
  const double base = updates_[first].offset_seconds;
  for (size_t j = first; j < first + count; ++j) {
    const int64_t due =
        start_ns +
        static_cast<int64_t>((updates_[j].offset_seconds - base) * 1e9);
    std::this_thread::sleep_until(Clock::time_point(
        std::chrono::nanoseconds(due)));
    const VenueId venue = updates_[j].update.venue_id;
    updates_started_[venue].fetch_add(1);
    const int64_t t0 = NowNs();
    itspq::Status status = service().SubmitUpdate(updates_[j].update).get();
    const int64_t t1 = NowNs();
    updates_done_[venue].fetch_add(1);
    w->update_late_us.push_back(Us(std::max<int64_t>(0, t0 - due)));
    w->update_us.push_back(Us(t1 - t0));
    update_ok_[j] = status.ok();
    if (!status.ok()) ++w->update_failures;
    tracer->Add("server.submit_update", t0, t1, -1,
                kUpdateIds + static_cast<uint32_t>(j));
  }
}

// One timed pass: `count` requests starting at list index `first` over
// plan_.connections connections, plus (kLive) updates
// [update_first, update_first + update_count) on their schedule. Spans
// are kept only when `traced`.
Window Bench::Drive(size_t first, size_t count, size_t update_first,
                    size_t update_count, bool traced) {
  Window w;
  w.first = first;
  w.count = count;
  w.latency_us.assign(count, 0);
  w.digest.assign(count, 0);
  w.code.assign(count, kNoReply);
  w.found.assign(count, 0);
  w.epoch.assign(count, 0);
  const size_t connections = static_cast<size_t>(plan_.connections);
  std::vector<Connection> conns(connections, Connection(traced));
  Tracer service_tracer(traced);  // Stats calls and the update thread

  int64_t stats_ns = NowNs();
  w.before = service().Stats();
  service_tracer.Add("server.stats", stats_ns, NowNs(), -1, kServiceId);
  const uint64_t steal0 = StealTicks();
  const double cpu0 = ProcessCpuUs();
  const int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      DriveConnection(static_cast<int>(c), &w, &conns[c]);
    });
  }
  if (update_count > 0) {
    threads.emplace_back([&] {
      DriveUpdates(t0, update_first, update_count, &w, &service_tracer);
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t t1 = NowNs();
  w.cpu_us = ProcessCpuUs() - cpu0;
  w.seconds = static_cast<double>(t1 - t0) / 1e9;
  w.steal = StealTicks() - steal0;
  stats_ns = NowNs();
  w.after = service().Stats();
  service_tracer.Add("server.stats", stats_ns, NowNs(), -1, kServiceId);
  for (const Connection& c : conns) {
    w.client_cpu_us += c.cpu_us;
    w.reply_bytes += c.reply_bytes;
    if (!c.error.empty()) w.transport_errors.push_back(c.error);
    tracer_.Append(c.tracer);
  }
  tracer_.Append(service_tracer);
  submitted_ += count;
  return w;
}

// Each list request's answer before any update: a direct Route on the
// served catalog, or on the cold fleet an unbudgeted catalog of the same
// artifacts, where every shard loads once and stays resident.
void Bench::ComputeTruth() {
  truth_.assign(requests_.size(), 0);
  itspq::QueryContext context;
  if (plan_.shape == Shape::kCold) {
    VenueCatalog eager;
    for (const std::string& path : artifacts_) {
      if (!Check(eager.AddArtifactShard(path, plan_.strategies[0]).status(),
                 "AddArtifactShard (truth)")) {
        return;
      }
    }
    itspq::ShardedRouter router(eager);
    for (size_t i = 0; i < requests_.size(); ++i) {
      truth_[i] = ResultDigest(router.Route(requests_[i], &context));
    }
    return;
  }
  for (size_t i = 0; i < requests_.size(); ++i) {
    truth_[i] = ResultDigest(service().router().Route(requests_[i], &context));
  }
}

// Every OK reply answered at a known epoch is checked: at epoch 0
// against truth_, at a later one (kLive) by CheckRebuild. Replies whose
// venue took an update while they were in flight stay unchecked.
void Bench::CheckWindow(const Window& w) {
  for (const std::string& e : w.transport_errors) result_->Fail(e);
  size_t mismatches = 0, refused = 0;
  for (size_t s = 0; s < w.count; ++s) {
    const size_t i = (w.first + s) % requests_.size();
    if (w.code[s] == kNoReply) continue;  // counted via transport_errors
    if (w.code[s] != 0) {
      ++refused;
      continue;
    }
    ++result_->ok_replies;
    if (w.epoch[s] == kEpochUnknown) continue;
    ++result_->checked;
    if (w.epoch[s] > 0) {
      epoch_replies_.push_back({requests_[i].venue_id, w.epoch[s],
                                static_cast<uint32_t>(i), w.digest[s]});
    } else if (w.digest[s] != truth_[i]) {
      ++mismatches;
    }
  }
  const size_t unanswered = w.count - w.Replies();
  result_->failed += refused + mismatches + unanswered + w.update_failures;
  if (mismatches > 0) {
    result_->Fail(std::to_string(mismatches) +
                  " replies differ from a direct Route on the same catalog");
  }
  if (w.update_failures > 0) {
    result_->Fail(std::to_string(w.update_failures) + " updates failed");
  }
}

// kLive. A reply answered at venue epoch k > 0 must equal the answer of
// the venue rebuilt from scratch with its first k updates applied. After
// the run, a sample of each updated venue's requests also goes through
// the socket, Submit and a direct Route, checked against a rebuild at the
// venue's final epoch.
void Bench::CheckRebuild() {
  std::vector<Venue> fleet;
  if (!GenerateFleet(&fleet)) return;
  std::map<VenueId, std::vector<const itspq::AtiUpdate*>> history;
  for (const TimedAtiUpdate& timed : updates_) {
    history[timed.update.venue_id].push_back(&timed.update);
  }
  const VenueCatalog& served = service().catalog();
  std::vector<size_t> sample;
  for (const auto& [venue_id, list] : history) {
    if (served.epoch(venue_id) != list.size()) {
      result_->Fail("venue " + std::to_string(venue_id) + " serves epoch " +
                    std::to_string(served.epoch(venue_id)) + " after " +
                    std::to_string(list.size()) + " updates");
    }
    size_t per_venue = 0;
    for (size_t i = 0; i < requests_.size(); ++i) {
      if (requests_[i].venue_id != venue_id) continue;
      sample.push_back(i);
      if (++per_venue == kFinalSamplePerVenue) break;
    }
  }

  const std::vector<uint64_t> over_socket = ServeOverSocket(sample);
  if (over_socket.size() != sample.size()) return;
  itspq::QueryContext context;
  for (size_t k = 0; k < sample.size(); ++k) {
    const QueryRequest& request = requests_[sample[k]];
    const uint32_t epoch =
        static_cast<uint32_t>(history[request.venue_id].size());
    auto submitted =
        service().Submit(request, plan_.deadline_us, plan_.qos).get();
    ++submitted_;
    const uint32_t i = static_cast<uint32_t>(sample[k]);
    for (uint64_t digest :
         {over_socket[k], ResultDigest(submitted),
          ResultDigest(service().router().Route(request, &context))}) {
      epoch_replies_.push_back({request.venue_id, epoch, i, digest});
    }
  }
  result_->attempted += 3 * sample.size();

  std::sort(epoch_replies_.begin(), epoch_replies_.end(),
            [](const EpochReply& x, const EpochReply& y) {
              return std::tie(x.venue, x.epoch) < std::tie(y.venue, y.epoch);
            });
  size_t mismatches = 0;
  for (size_t g = 0; g < epoch_replies_.size();) {
    const VenueId venue_id = epoch_replies_[g].venue;
    const uint32_t epoch = epoch_replies_[g].epoch;
    const std::vector<const itspq::AtiUpdate*>& list = history[venue_id];
    if (epoch > list.size()) {
      result_->Fail("a reply from venue " + std::to_string(venue_id) +
                    " at epoch " + std::to_string(epoch) + " after only " +
                    std::to_string(list.size()) + " updates");
      return;
    }
    const size_t v = static_cast<size_t>(venue_id);
    auto builder = Venue::Builder::FromVenue(fleet[v]);
    for (size_t k = 0; k < epoch; ++k) {
      if (!Check(builder.SetDoorAti(list[k]->door_id, list[k]->intervals),
                 "SetDoorAti")) {
        return;
      }
    }
    auto rebuilt_venue = std::move(builder).Build();
    if (!Check(rebuilt_venue.status(), "rebuild venue")) return;
    VenueCatalog rebuilt;
    if (!Check(rebuilt.AddVenue(*std::move(rebuilt_venue), plan_.Strategy(v))
                   .status(),
               "rebuild AddVenue")) {
      return;
    }
    for (; g < epoch_replies_.size() && epoch_replies_[g].venue == venue_id &&
           epoch_replies_[g].epoch == epoch;
         ++g) {
      QueryRequest local = requests_[epoch_replies_[g].request];
      local.venue_id = 0;
      if (ResultDigest(rebuilt.router(0).Route(local, &context)) !=
          epoch_replies_[g].digest) {
        ++mismatches;
      }
    }
  }
  result_->failed += mismatches;
  if (mismatches > 0) {
    result_->Fail(std::to_string(mismatches) + " of " +
                  std::to_string(epoch_replies_.size()) +
                  " answers after updates differ from a from-scratch rebuild");
  }
}

// Sends list requests `list` one at a time over a new connection and
// returns their reply digests; fewer when the transport fails.
std::vector<uint64_t> Bench::ServeOverSocket(const std::vector<size_t>& list) {
  namespace net = itspq::net;
  std::vector<uint64_t> digests;
  auto fd = net::ConnectLoopback(server_->port());
  if (!Check(fd.status(), "post-run connect")) return digests;
  (void)net::SetRecvTimeout(fd->get(), kRecvTimeoutSeconds);
  std::string payload;
  net::WireReply reply;
  for (size_t i : list) {
    net::WireQuery query = wire_[i];
    query.request_id = digests.size() + 1;
    itspq::Status status = net::WriteFrame(fd->get(), EncodeFrame(query));
    if (!Check(status, "post-run send")) return digests;
    ++submitted_;
    if (net::ReadFrame(fd->get(), net::kDefaultMaxFrameBytes, &payload,
                       &status) != net::FrameRead::kFrame) {
      result_->Fail("post-run: no reply: " + status.ToString());
      return digests;
    }
    if (!Check(DecodeReplyFrame(payload, &reply), "post-run decode")) {
      return digests;
    }
    digests.push_back(ReplyDigest(reply));
  }
  return digests;
}

void Bench::CheckAccounting() {
  server_->Stop();
  const ServiceStats s = service().Stats();
  const itspq::net::WireStats ledger = itspq::net::MakeWireStats(s);
  const uint64_t settled =
      ledger.served + ledger.shed + ledger.rejected + ledger.timed_out;
  if (settled != ledger.submitted) {
    result_->Fail("accounting: submitted " + std::to_string(s.submitted) +
                  " != served + shed + rejected + timed out " +
                  std::to_string(settled));
  }
  if (s.submitted != submitted_) {
    result_->Fail("accounting: service saw " + std::to_string(s.submitted) +
                  " requests, the benchmark sent " +
                  std::to_string(submitted_));
  }
  if (s.updates_submitted != s.updates_applied + s.updates_rejected ||
      s.updates_rejected != 0) {
    result_->Fail("update accounting: submitted " +
                  std::to_string(s.updates_submitted) + ", applied " +
                  std::to_string(s.updates_applied) + ", rejected " +
                  std::to_string(s.updates_rejected));
  }
}

void Bench::AddEndToEnd(const Window& w) {
  result_->Add("p50_us", Quantile(w.Latencies(), 0.5), "us");
  result_->Add("peak_rss_mb", peak_rss_mb_, "MiB");
  result_->Add("setup_s", Quantile(setup_s_, 0), "s");
  result_->Add("ok_frac",
               1.0 - static_cast<double>(result_->failed) /
                         static_cast<double>(std::max<uint64_t>(
                             1, result_->attempted)),
               "ratio");
}

// Requests of `kind` for the per-kind Route probe: the workload's own
// when it has them, otherwise generated on the served venues.
std::vector<QueryRequest> Bench::KindProbe(QueryKind kind) {
  std::vector<QueryRequest> out;
  for (const QueryRequest& r : requests_) {
    if (r.kind == kind && out.size() < kKindProbeSize) out.push_back(r);
  }
  if (!out.empty()) return out;
  const VenueCatalog& catalog = service().catalog();
  if (kind == QueryKind::kPointToPoint) {
    itspq::MultiVenueWorkloadConfig config;
    config.num_requests = static_cast<int>(kKindProbeSize);
    config.seed = args_.seed + 4;
    config.pairs_per_venue = 4;
    config.options.use_snapshot_cache = true;
    auto generated = itspq::GenerateMultiVenueWorkload(catalog, config);
    if (Check(generated.status(), "p2p probe")) out = *std::move(generated);
    return out;
  }
  const size_t venues = std::min<size_t>(4, catalog.NumVenues());
  for (size_t v = 0; v < venues; ++v) {
    auto world = catalog.EnsureResident(static_cast<VenueId>(v));
    if (!Check(world.status(), "EnsureResident")) return out;
    itspq::FamilyGenConfig config;
    config.kind = kind;
    config.num_queries = static_cast<int>(kKindProbeSize / venues);
    config.seed = args_.seed * 31 + v;
    config.min_departure_seconds = 8 * 3600;
    config.max_departure_seconds = 21 * 3600;
    auto generated = itspq::GenerateFamilyQueries((*world)->graph(), config);
    if (!Check(generated.status(), "family probe")) return out;
    for (QueryRequest& q : *generated) {
      q.venue_id = static_cast<VenueId>(v);
      q.options.use_snapshot_cache = true;
      out.push_back(std::move(q));
    }
  }
  return out;
}

// Replays window b's first requests in order through Submit -> get and
// then through LocateAll per endpoint and a direct Route. Each of these
// executions is traced on its own: its spans are roots, never children of
// another execution's spans. Returns the LocateAll time per endpoint in
// ns; fills the per-request Submit and Route times.
double Bench::ReplayService(const Window& b, std::vector<double>* service_us,
                            std::vector<double>* route_us) {
  const size_t m = std::min(kReplaySize, b.count);
  for (size_t s = 0; s < m; ++s) {
    const QueryRequest& request = requests_[(b.first + s) % requests_.size()];
    const int64_t t0 = NowNs();
    auto answer = service().Submit(request, plan_.deadline_us, plan_.qos).get();
    const int64_t t1 = NowNs();
    ++submitted_;
    service_us->push_back(Us(t1 - t0));
    tracer_.Add("server.submit", t0, t1, -1, static_cast<uint32_t>(s));
    if (!answer.ok()) {
      ++result_->failed;
      result_->Fail("in-process replay: " + answer.status().ToString());
    }
  }
  itspq::QueryContext context;
  double locate_ns = 0;
  size_t endpoints = 0;
  for (size_t s = 0; s < m; ++s) {
    const QueryRequest& request = requests_[(b.first + s) % requests_.size()];
    auto world = service().catalog().EnsureResident(request.venue_id);
    if (!Check(world.status(), "EnsureResident")) return 0;
    const Venue& venue = (*world)->venue();
    const bool has_target = request.kind == QueryKind::kPointToPoint ||
                            request.kind == QueryKind::kMultiStop;
    const int64_t t0 = NowNs();
    size_t located = venue.LocateAll(request.source).size();
    if (has_target) located += venue.LocateAll(request.target).size();
    for (const itspq::IndoorPoint& p : request.waypoints) {
      located += venue.LocateAll(p).size();
    }
    const int64_t t1 = NowNs();
    auto answer = service().router().Route(request, &context);
    const int64_t t2 = NowNs();
    if (located == 0) result_->Fail("request endpoint outside its venue");
    const size_t n = 1 + (has_target ? 1 : 0) + request.waypoints.size();
    locate_ns += static_cast<double>(t1 - t0);
    endpoints += n;
    route_us->push_back(Us(t2 - t1));
    tracer_.Add("venue.locate", t0, t1, -1, static_cast<uint32_t>(s));
    tracer_.Add("query.route", t1, t2, -1, static_cast<uint32_t>(s));
  }
  return endpoints > 0 ? locate_ns / static_cast<double>(endpoints) : 0;
}

// kLive. The update layer on its own: the stream's updates applied
// straight to a private catalog of the same fleet with ApplyAtiUpdate.
double Bench::ShadowApplyP50() {
  std::vector<Venue> fleet;
  if (!GenerateFleet(&fleet)) return 0;
  VenueCatalog shadow;
  for (size_t v = 0; v < fleet.size(); ++v) {
    if (!Check(shadow.AddVenue(std::move(fleet[v]), plan_.Strategy(v)).status(),
               "AddVenue (shadow)")) {
      return 0;
    }
  }
  std::vector<double> apply_us;
  for (size_t j = 0; j < updates_.size(); ++j) {
    const int64_t t0 = NowNs();
    auto outcome = shadow.ApplyAtiUpdate(updates_[j].update);
    const int64_t t1 = NowNs();
    if (!Check(outcome.status(), "ApplyAtiUpdate (shadow)")) return 0;
    apply_us.push_back(Us(t1 - t0));
    tracer_.Add("update.apply", t0, t1, -1,
                kUpdateIds + static_cast<uint32_t>(j));
  }
  return Quantile(apply_us, 0.5);
}

void Bench::AddPerLayer(const Window& a, const Window& b) {
  RunResult& r = *result_;
  const double replies = static_cast<double>(std::max<size_t>(1, a.Replies()));
  const double ok = static_cast<double>(std::max<size_t>(1, a.Ok()));
  const double p50 = Quantile(a.Latencies(), 0.5);
  const double cpu_per_req = a.cpu_us / ok;

  // Rate and CPU per OK reply are reported here, not gated end to end:
  // on a shared 4-vCPU VM host contention moved CPU per request by up to
  // 50% across ten back-to-back runs of one workload while p50_us moved
  // 15%, and the closed-loop rate by 45% under heavy steal. On
  // batch_families the fixed pipeline ties p50_us to the rate (Little's
  // law), so the gated p50_us covers it.
  r.Add("throughput_qps", static_cast<double>(a.Ok()) / a.seconds, "req/s");
  r.Add("cpu_us_per_req", cpu_per_req, "us");

  // client
  r.Add("client.p99_us", Quantile(a.Latencies(), 0.99), "us");
  r.Add("client.samples", static_cast<double>(a.Replies()), "count");
  r.Add("client.cpu_us_per_req", a.client_cpu_us / replies, "us");

  // net + server + query + venue: the replay decomposition.
  std::vector<double> service_us, route_us;
  const double locate_ns = ReplayService(b, &service_us, &route_us);
  const size_t m = route_us.size();
  std::vector<double> encode_ns, decode_ns;
  for (const Span& s : tracer_.spans()) {
    const bool encode = std::string_view(s.name) == "net.encode";
    if (encode || std::string_view(s.name) == "net.decode") {
      (encode ? encode_ns : decode_ns)
          .push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  const double service_p50 = Quantile(service_us, 0.5);
  const double route_p50 = Quantile(route_us, 0.5);
  r.Add("net.encode_ns", Quantile(encode_ns, 0.5), "ns");
  r.Add("net.decode_ns", Quantile(decode_ns, 0.5), "ns");
  r.Add("net.reply_bytes", static_cast<double>(a.reply_bytes) / replies, "B");
  r.Add("net.edge_us", p50 - service_p50, "us");
  r.Add("server.service_p50_us", service_p50, "us");
  r.Add("server.queue_us", service_p50 - route_p50, "us");
  const size_t batches = a.after.batches - a.before.batches;
  r.Add("server.batch_mean",
        batches == 0 ? 0
                     : static_cast<double>(BatchedRequests(a.after) -
                                           BatchedRequests(a.before)) /
                           static_cast<double>(batches),
        "count");
  r.Add("server.queue_high_water",
        static_cast<double>(a.after.queue_high_water), "count");
  const itspq::net::WireStats l0 = itspq::net::MakeWireStats(a.before);
  const itspq::net::WireStats l1 = itspq::net::MakeWireStats(a.after);
  r.Add("server.shed", static_cast<double>(l1.shed - l0.shed), "count");
  r.Add("server.rejected", static_cast<double>(l1.rejected - l0.rejected),
        "count");
  r.Add("server.timed_out", static_cast<double>(l1.timed_out - l0.timed_out),
        "count");
  r.Add("failed_frac",
        static_cast<double>(r.failed) /
            static_cast<double>(std::max<uint64_t>(1, r.attempted)),
        "ratio");

  // query: direct Route per kind on the served catalog.
  itspq::QueryContext context;
  for (QueryKind kind :
       {QueryKind::kPointToPoint, QueryKind::kReachability,
        QueryKind::kNearestFacility, QueryKind::kMultiStop}) {
    const std::vector<QueryRequest> probe = KindProbe(kind);
    for (const QueryRequest& q : probe) {
      (void)service().router().Route(q, &context);  // warm the caches
    }
    std::vector<double> us;
    double pops = 0;
    for (const QueryRequest& q : probe) {
      const int64_t t0 = NowNs();
      auto answer = service().router().Route(q, &context);
      const int64_t t1 = NowNs();
      us.push_back(Us(t1 - t0));
      if (answer.ok()) pops += static_cast<double>(answer->stats.doors_popped);
    }
    const std::string label = KindLabel(kind);
    const double n = static_cast<double>(std::max<size_t>(1, probe.size()));
    r.Add("query.route_p50_us." + label, Quantile(us, 0.5), "us");
    r.Add("query.route_p99_us." + label, Quantile(us, 0.99), "us");
    r.Add("query.pops_per_req." + label, pops / n, "count");
  }
  r.Add("query.found_frac",
        static_cast<double>(std::count(a.found.begin(), a.found.end(), 1)) /
            static_cast<double>(std::max<size_t>(1, a.Ok())),
        "ratio");
  // Graph_Update derivations the served requests of window a caused.
  const itspq::CacheStatsSnapshot cache = CacheDelta(a.before, a.after);
  r.Add("query.graph_updates_per_req",
        static_cast<double>(cache.builds()) / replies, "count");

  // itgraph: the snapshot stores over window a.
  const size_t lookups = cache.hits + cache.misses;
  r.Add("itgraph.snapshot_hit_rate",
        lookups == 0 ? 1.0
                     : static_cast<double>(cache.hits) /
                           static_cast<double>(lookups),
        "ratio");
  r.Add("itgraph.snapshot_builds_full", static_cast<double>(cache.full_builds),
        "count");
  r.Add("itgraph.snapshot_builds_delta",
        static_cast<double>(cache.delta_builds), "count");
  r.Add("itgraph.snapshot_bytes",
        static_cast<double>(a.after.catalog.total_cache.resident_bytes), "B");

  // update: the live stream, then the same updates applied directly;
  // 0 on workloads without an update stream.
  const bool live = plan_.shape == Shape::kLive;
  const double commit_p50 = Quantile(update_us_, 0.5);
  const double apply_p50 = live ? ShadowApplyP50() : 0;
  std::vector<double> late = a.update_late_us;
  late.insert(late.end(), b.update_late_us.begin(), b.update_late_us.end());
  const itspq::CatalogStats& u0 = a.before.catalog;
  const itspq::CatalogStats& u1 = b.after.catalog;
  r.Add("update.commit_p50_us", commit_p50, "us");
  r.Add("update.apply_p50_us", apply_p50, "us");
  r.Add("update.queue_us", commit_p50 - apply_p50, "us");
  r.Add("update.carried",
        static_cast<double>(u1.total_update_snapshots_carried -
                            u0.total_update_snapshots_carried),
        "count");
  r.Add("update.rebased",
        static_cast<double>(RebasedSnapshots(b.after) -
                            RebasedSnapshots(a.before)),
        "count");
  r.Add("update.invalidated",
        static_cast<double>(u1.total_update_intervals_invalidated -
                            u0.total_update_intervals_invalidated),
        "count");
  r.Add("update.submit_late_us", Quantile(late, 0.99), "us");

  // catalog + artifact.
  const bool cold = plan_.shape == Shape::kCold;
  const itspq::CatalogStats& k0 = a.before.catalog;
  const itspq::CatalogStats& k1 = a.after.catalog;
  const double loads = static_cast<double>(k1.total_loads - k0.total_loads);
  r.Add("catalog.add_venue_ms", cold ? 0 : Quantile(catalog_us_, 0) / 1e3,
        "ms");
  r.Add("catalog.register_us", cold ? Quantile(catalog_us_, 0) : 0, "us");
  r.Add("catalog.cold_loads", loads, "count");
  r.Add("catalog.evictions",
        static_cast<double>(k1.total_shard_evictions -
                            k0.total_shard_evictions),
        "count");
  r.Add("catalog.hit_rate", 1.0 - loads / replies, "ratio");
  r.Add("catalog.resident_mb",
        static_cast<double>(k1.total_memory_bytes) / (1024.0 * 1024.0), "MiB");
  r.Add("artifact.load_p50_us", Quantile(artifact_load_us_, 0.5), "us");
  r.Add("artifact.bytes_per_venue", artifact_bytes_per_venue_, "B");

  // venue.
  r.Add("venue.locate_ns", locate_ns, "ns");

  // Layer self time per traced request, update and artifact load, and
  // what tracing cost. Spans nest only within one execution (see
  // ReplayService), so a span over a call whose work goes on behind the
  // socket or a future is a leaf, and its self time includes the layers
  // behind it.
  const uint32_t n = static_cast<uint32_t>(m);
  for (const char* layer : {"client", "net", "server", "query", "venue"}) {
    r.Add(std::string("trace.self_us_per_req.") + layer,
          tracer_.MeanSelfUs(layer, 0, n), "us");
  }
  const uint32_t u_end = kUpdateIds + static_cast<uint32_t>(updates_.size());
  r.Add("trace.self_us_per_update.server",
        tracer_.MeanSelfUs("server", kUpdateIds, u_end), "us");
  r.Add("trace.self_us_per_update.update",
        tracer_.MeanSelfUs("update", kUpdateIds, u_end), "us");
  const uint32_t a_end =
      kArtifactIds + static_cast<uint32_t>(artifacts_.size());
  r.Add("trace.self_us_per_load.artifact",
        tracer_.MeanSelfUs("artifact", kArtifactIds, a_end), "us");
  const double b_ok = static_cast<double>(std::max<size_t>(1, b.Ok()));
  r.Add("trace.overhead_p50_us", Quantile(b.Latencies(), 0.5) - p50, "us");
  r.Add("trace.overhead_cpu_us_per_req", b.cpu_us / b_ok - cpu_per_req, "us");
  r.Add("host.steal_ticks", static_cast<double>(a.steal + b.steal), "count");
}

void Bench::Run() {
  RunResult& r = *result_;
  if (plan_.shape == Shape::kCold) {
    // The cold catalog cannot hand out graphs before its shards load,
    // so traffic is drawn on an eager catalog of the same fleet.
    std::vector<Venue> fleet;
    if (!GenerateFleet(&fleet)) return;
    VenueCatalog eager;
    std::vector<Venue> copy = fleet;
    for (Venue& venue : copy) {
      if (!Check(eager.AddVenue(std::move(venue), plan_.strategies[0]).status(),
                 "AddVenue (traffic)")) {
        return;
      }
    }
    if (!GenerateTraffic(eager)) return;
    if (!PackArtifacts(fleet)) return;
  }

  if (!SetUpRepeats(true)) return;
  if (plan_.shape != Shape::kCold && !GenerateTraffic(service().catalog())) {
    return;
  }

  // Warm-up: one pass over the list fills snapshot caches and, on the
  // cold fleet, brings the LRU residency set to its steady state.
  Window warm = Drive(0, requests_.size(), 0, 0, false);
  for (const std::string& e : warm.transport_errors) r.Fail("warm-up: " + e);
  if (!r.correct) return;
  // Before the timed window: on live_updates every venue is still at
  // epoch 0 here.
  ComputeTruth();

  const size_t total =
      std::max(requests_.size(),
               static_cast<size_t>(plan_.nominal_qps *
                                   static_cast<double>(args_.seconds)));
  const size_t live_updates = plan_.shape == Shape::kLive ? updates_.size() : 0;
  ResetPeakRss();
  Window a, b;
  if (!args_.trace) {
    a = Drive(0, total, 0, live_updates, false);
  } else {
    // Two halves over the same requests: untraced, then traced. Their
    // difference is what tracing costs.
    a = Drive(0, total / 2, 0, live_updates / 2, false);
    b = Drive(0, total / 2, live_updates / 2, live_updates - live_updates / 2,
              true);
  }
  peak_rss_mb_ = PeakRssMb();
  if (!SetUpRepeats(false)) return;
  r.steal_ticks = a.steal + b.steal;
  r.attempted = a.count + b.count + live_updates;
  update_us_ = a.update_us;
  update_us_.insert(update_us_.end(), b.update_us.begin(), b.update_us.end());

  CheckWindow(a);
  if (args_.trace) CheckWindow(b);
  if (plan_.shape == Shape::kLive) CheckRebuild();

  if (!args_.trace) {
    AddEndToEnd(a);
  } else {
    AddPerLayer(a, b);
    const std::string path = args_.work_dir + "/spans-" + args_.workload +
                             "-seed" + std::to_string(args_.seed) + ".tsv";
    if (!tracer_.WriteTsv(path)) r.Fail("cannot write " + path);
  }
  CheckAccounting();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "interactive_p2p", "batch_families", "live_updates", "cold_fleet"};
  return names;
}

RunResult RunWorkload(const Args& args) {
  RunResult result;
  Bench bench(args, &result);
  bench.Run();
  return result;
}

}  // namespace perfbench
