#ifndef ITSPQ_SERVER_QUERY_SERVICE_H_
#define ITSPQ_SERVER_QUERY_SERVICE_H_

// The asynchronous serving frontend over the Router API.
//
// A QueryService owns a fully built VenueCatalog, fronts it with a
// ShardedRouter, and serves Submit()ed requests through a bounded
// admission queue drained by worker threads. A woken worker takes what
// is already queued, up to kMaxBatch requests in QoS-class order — it
// never waits for more to arrive — and routes them one after another,
// delivering each reply as soon as its route finishes. An interactive
// request that finds the service idle (nothing queued, dispatch
// capacity free, shard resident) is routed inline by the submitting
// thread, through the same admission ledger and deadline gates. Per-request deadlines are re-checked before and
// after dispatch. Admission control is explicit:
//
//   queue full            -> kResourceExhausted  (backpressure)
//   displaced while queued-> kResourceExhausted  (shed: a higher QoS
//                                                 class took the slot)
//   infeasible deadline   -> kResourceExhausted  (shed: cannot make the
//                                                 deadline at current
//                                                 queue depth)
//   NaN/negative deadline -> kInvalidArgument    (never enqueued)
//   deadline already past -> kDeadlineExceeded   (never enqueued)
//   expired while queued  -> kDeadlineExceeded   (never dispatched)
//   expired mid-dispatch  -> kDeadlineExceeded   (answer dropped)
//   submit after Shutdown -> kFailedPrecondition
//
// Overload control is QoS-aware. Every request carries a QosClass;
// workers drain strictly by class (interactive before batch before
// background), and when the queue is at its limit an arriving request
// of a higher class displaces the youngest queued request of the
// lowest class present — overload sheds the cheapest traffic first and
// never silently delays the most valuable. Two further mechanisms grow
// the fixed-capacity admission of the original frontend into real
// overload control:
//
//   * Deadline-feasibility shedding: a request whose deadline cannot be
//     met given the queue depth ahead of it and the observed per-
//     request route time (EWMA over dispatched batches) is shed at
//     admission instead of wasting a queue slot to time out later:
//     (queued_ahead + 1) * ewma / num_workers overruns the deadline.
//     It needs a finite deadline and an EWMA, so cold starts, paused
//     tests and deadline-free traffic are admitted.
//   * Adaptive queue limits: when target_queue_delay_micros is set, the
//     admission limit tracks target_delay / observed_route_time instead
//     of the fixed queue_capacity (which remains the hard ceiling), so
//     the queue holds roughly target_delay worth of work no matter how
//     slow the backend currently is.
//
//   VenueCatalog catalog = BuildFleet();
//   ServiceOptions opts;
//   opts.num_workers = 4;
//   auto service = MakeQueryService(std::move(catalog), opts);
//   (*service)->Submit(request, 50'000, QosClass::kInteractive,
//                      [](StatusOr<QueryResult> answer) { ... });
//   std::future<StatusOr<QueryResult>> later =         // future adapter
//       (*service)->Submit(request, 50'000, QosClass::kBatch);
//   ...
//   ServiceStats report = (*service)->Stats();       // any time
//   (*service)->Shutdown();                          // drains in-flight
//
// Submit() is thread-safe; its callback (or future) runs exactly once,
// rejections included. Shutdown() (also run by the destructor) stops
// admission, serves everything already admitted whose deadline still
// allows, joins the workers and waits out inline routes.
//
// The service is also the write plane's front door: SubmitUpdate()
// feeds online ATI mutations through a bounded queue drained by one
// dedicated updater thread (strict FIFO, one epoch transition at a
// time), while queries keep flowing — reads pin their epoch, writes
// publish the next one RCU-style (see query/venue_catalog.h).

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "query/router.h"
#include "query/sharded_router.h"
#include "query/venue_catalog.h"
#include "update/ati_update.h"

namespace itspq {

/// Request priority class, carried on the wire by the network edge
/// (net/wire.h) and into admission by Submit(). Lower value = higher
/// priority; workers drain strictly in class order and overload sheds
/// the highest value (lowest class) first. The numeric values are part
/// of the wire contract — frozen, append only.
enum class QosClass : uint8_t {
  kInteractive = 0,  ///< A user is waiting on the answer.
  kBatch = 1,        ///< Throughput-sensitive offline work.
  kBackground = 2,   ///< Crawlers, prefetchers — first to shed.
};

inline constexpr size_t kNumQosClasses = 3;

/// The most already-queued requests a worker takes into one batch; it
/// never waits for more to arrive, and it delivers each reply as soon
/// as that request is routed.
inline constexpr size_t kMaxBatch = 16;

/// Construction-time serving knobs, validated by MakeQueryService.
struct ServiceOptions {
  /// Admission queue bound; submits beyond it bounce with
  /// kResourceExhausted instead of growing memory without limit.
  size_t queue_capacity = 1024;
  /// Worker threads draining the queue. Each worker owns one
  /// QueryContext for its whole lifetime.
  int num_workers = 2;
  /// Adaptive queue limit: when > 0, the admission limit is
  ///   min(queue_capacity,
  ///       max(min_queue_limit,
  ///           target_queue_delay_micros * num_workers / ewma))
  /// where ewma is the observed per-request route time — the queue
  /// holds roughly this much wall-clock worth of work instead of a
  /// fixed request count. 0 keeps the fixed queue_capacity.
  /// queue_capacity stays the hard memory ceiling either way.
  double target_queue_delay_micros = 0;
  /// Floor under the adaptive limit so a latency spike cannot collapse
  /// admission to zero.
  size_t min_queue_limit = 4;
  /// Bound on the update queue SubmitUpdate feeds; submits beyond it
  /// bounce with kResourceExhausted. Updates are orders of magnitude
  /// rarer than queries, so the default is small.
  size_t update_queue_capacity = 64;
  /// Start with dispatch paused: requests are admitted (and rejected
  /// under backpressure) but nothing is served until Resume() or
  /// Shutdown(). Deterministic admission tests and coordinated warm-up
  /// starts use this; production services leave it off.
  bool start_paused = false;
};

/// Point-in-time serving counters. Every submitted request lands in
/// exactly one of {rejected_*, shed_*, timed_out_*, served} once the
/// service quiesces, so after Shutdown:
///   submitted == rejected_queue_full + rejected_expired +
///                rejected_invalid + rejected_shutdown +
///                shed_displaced + shed_infeasible +
///                timed_out_in_queue + timed_out_in_flight + served.
struct ServiceStats {
  size_t submitted = 0;
  /// Admitted to the queue (eventually dispatched, timed out, shed by a
  /// later displacement, or — for a snapshot taken while serving —
  /// still queued/in flight).
  size_t admitted = 0;
  size_t rejected_queue_full = 0;
  /// Deadline already expired at Submit(); never enqueued.
  size_t rejected_expired = 0;
  /// Malformed submission (NaN/negative deadline, unknown QoS class);
  /// never enqueued.
  size_t rejected_invalid = 0;
  size_t rejected_shutdown = 0;
  /// Overload shed: admitted, then evicted from the queue to make room
  /// for a higher-QoS arrival.
  size_t shed_displaced = 0;
  /// Overload shed: the deadline was infeasible at the observed service
  /// rate given the queue depth ahead; never enqueued.
  size_t shed_infeasible = 0;
  /// Deadline expired between admission and dispatch.
  size_t timed_out_in_queue = 0;
  /// Deadline expired while the request was being routed; the computed
  /// answer was dropped in favour of kDeadlineExceeded.
  size_t timed_out_in_flight = 0;
  /// Delivered a router answer (OK-found, OK-not-found, or a
  /// per-request router error).
  size_t served = 0;
  size_t served_found = 0;
  size_t route_errors = 0;

  /// Write path: SubmitUpdate calls, updates committed by the updater
  /// thread, and ones that failed anywhere (queue full, shutdown, or
  /// ApplyAtiUpdate error). After Shutdown:
  ///   updates_submitted == updates_applied + updates_rejected.
  size_t updates_submitted = 0;
  size_t updates_applied = 0;
  size_t updates_rejected = 0;

  /// Per-class ledger, indexed by QosClass value. Sheds cover both
  /// displacement and infeasibility; under overload the shed mass
  /// should sit entirely in the lowest class present.
  std::array<size_t, kNumQosClasses> submitted_by_class = {};
  std::array<size_t, kNumQosClasses> served_by_class = {};
  std::array<size_t, kNumQosClasses> shed_by_class = {};

  /// Per-family ledger, indexed by QueryKind value: every Submit()
  /// with a known kind lands in submitted_by_kind, every delivered
  /// router answer in served_by_kind. An out-of-range kind is rejected
  /// at admission (kInvalidArgument, counted in rejected_invalid) and
  /// appears in neither array, so sum(submitted_by_kind) == submitted
  /// minus those rejections, and sum(served_by_kind) == served.
  std::array<size_t, kNumQueryKinds> submitted_by_kind = {};
  std::array<size_t, kNumQueryKinds> served_by_kind = {};

  /// Queue shape: current depth (all classes), the deepest it has been
  /// (an inline route counts as depth 1), the admission limit in force
  /// (== queue_capacity until the adaptive limit engages), and the
  /// per-request route-time EWMA driving it (0 until the first dispatch).
  size_t queue_depth = 0;
  size_t queue_high_water = 0;
  size_t queue_limit = 0;
  double ewma_route_micros = 0;

  /// Dispatch shape: batch_size_counts[b] = dispatched batches of size
  /// b (index 0 unused; sized kMaxBatch + 1; inline routes are size 1).
  /// Sum of b * count == the requests that reached the router.
  size_t batches = 0;
  std::vector<size_t> batch_size_counts;

  /// Submit-to-delivery latency of served requests.
  LatencyHistogram latency;

  /// The owned catalog's per-shard traffic / snapshot-cache report,
  /// including lazy-fleet cold loads (total_loads, load_latency).
  CatalogStats catalog;
};

class QueryService {
 public:
  /// Shuts down (draining) if the caller has not already.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Receives a request's outcome, exactly once. Must not block.
  using Done = std::function<void(StatusOr<QueryResult>)>;

  /// The submit primitive: a deadline `deadline_micros` from now and a
  /// QoS class, which orders service and shedding (see the file
  /// comment). A zero deadline is already expired (immediate
  /// kDeadlineExceeded, never enqueued); NaN or negative is malformed
  /// (immediate kInvalidArgument — NaN must never be admitted, since
  /// every comparison against it would read "no deadline"); +infinity
  /// means no deadline. `done` runs on a worker, or before Submit
  /// returns for a rejection or an inline route.
  void Submit(const QueryRequest& request, double deadline_micros,
              QosClass qos, Done done);

  /// Adapter: the primitive with a future in place of the callback.
  std::future<StatusOr<QueryResult>> Submit(const QueryRequest& request,
                                            double deadline_micros,
                                            QosClass qos);

  /// Submits one online ATI mutation. Updates drain through a dedicated
  /// updater thread in strict FIFO order (one ApplyAtiUpdate at a time
  /// service-wide), so reads never block on writes and writers never
  /// starve behind query batches. The future resolves with the commit
  /// status:
  ///   kOk                 — the new epoch is published; queries
  ///                         submitted after the future resolves see it.
  ///   kResourceExhausted  — update queue full (backpressure).
  ///   kFailedPrecondition — service already shut down.
  ///   kNotFound           — unknown venue_id or door_id.
  ///   kInvalidArgument    — replacement intervals fail normalisation.
  /// The updater ignores start_paused — pausing gates query dispatch
  /// only, so an update stream keeps flowing under a paused service.
  std::future<Status> SubmitUpdate(const AtiUpdate& update);

  /// Lifts start_paused: workers begin draining. No-op when already
  /// running.
  void Resume();

  /// Stops admission, serves every already-admitted request whose
  /// deadline still allows (rejecting the rest with kDeadlineExceeded),
  /// applies every already-admitted update, joins the workers plus the
  /// updater, and waits out inline routes. Idempotent; concurrent
  /// callers block until the drain completes.
  void Shutdown();

  /// Point-in-time counters; safe to call while traffic is in flight.
  ServiceStats Stats() const;

  const ServiceOptions& options() const { return options_; }
  /// The owned serving state. The catalog's routers stay directly
  /// callable (Router::Route is const) — the replay test compares
  /// served answers against exactly that.
  const VenueCatalog& catalog() const { return catalog_; }
  const Router& router() const { return router_; }

 private:
  friend StatusOr<std::unique_ptr<QueryService>> MakeQueryService(
      VenueCatalog catalog, ServiceOptions options);

  using Clock = std::chrono::steady_clock;

  struct Pending {
    QueryRequest request;
    QosClass qos = QosClass::kInteractive;
    Clock::time_point submit;
    /// Clock::time_point::max() = no deadline.
    Clock::time_point deadline;
    Done done;
  };

  struct PendingUpdate {
    AtiUpdate update;
    std::promise<Status> promise;
  };

  QueryService(VenueCatalog catalog, ServiceOptions options);

  void WorkerLoop();
  /// Deadline-checks and routes `size` requests from `batch` in order,
  /// running each `done` as soon as that request is routed.
  void Dispatch(Pending* batch, size_t size, QueryContext* context);
  /// The dedicated writer: drains the update queue FIFO, one
  /// ApplyAtiUpdate at a time.
  void UpdaterLoop();

  size_t TotalQueuedLocked() const;
  /// The admission limit currently in force: queue_capacity, shrunk by
  /// the adaptive target-delay limit once an EWMA exists.
  size_t QueueLimitLocked() const;

  // Construction order matters: router_ points at catalog_.
  VenueCatalog catalog_;
  ShardedRouter router_;
  ServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// One FIFO per QoS class, drained in class order. Guarded by mu_.
  std::array<std::deque<Pending>, kNumQosClasses> queues_;
  bool paused_;                 // guarded by mu_
  bool draining_ = false;       // guarded by mu_
  /// Dispatches running, worker batches and inline routes alike.
  int active_ = 0;              // guarded by mu_
  size_t queue_high_water_ = 0;  // guarded by mu_
  std::once_flag join_once_;
  std::vector<std::thread> workers_;

  // The write plane: its own queue, lock, and single updater thread so
  // updates never contend with query admission on mu_.
  mutable std::mutex update_mu_;
  std::condition_variable update_cv_;
  std::deque<PendingUpdate> update_queue_;  // guarded by update_mu_
  bool update_draining_ = false;            // guarded by update_mu_
  std::thread updater_;

  std::atomic<size_t> submitted_{0};
  std::atomic<size_t> admitted_{0};
  std::atomic<size_t> rejected_queue_full_{0};
  std::atomic<size_t> rejected_expired_{0};
  std::atomic<size_t> rejected_invalid_{0};
  std::atomic<size_t> rejected_shutdown_{0};
  std::atomic<size_t> shed_displaced_{0};
  std::atomic<size_t> shed_infeasible_{0};
  std::atomic<size_t> timed_out_in_queue_{0};
  std::atomic<size_t> timed_out_in_flight_{0};
  std::atomic<size_t> served_{0};
  std::atomic<size_t> served_found_{0};
  std::atomic<size_t> route_errors_{0};
  std::array<std::atomic<size_t>, kNumQosClasses> submitted_by_class_{};
  std::array<std::atomic<size_t>, kNumQosClasses> served_by_class_{};
  std::array<std::atomic<size_t>, kNumQosClasses> shed_by_class_{};
  std::array<std::atomic<size_t>, kNumQueryKinds> submitted_by_kind_{};
  std::array<std::atomic<size_t>, kNumQueryKinds> served_by_kind_{};
  /// Observed per-request route time (µs), smoothed over dispatched
  /// batches. Written by workers, read by admission and Stats; a
  /// last-writer-wins race between workers is fine for a smoothed
  /// signal.
  std::atomic<double> ewma_route_micros_{0};
  std::atomic<size_t> updates_submitted_{0};
  std::atomic<size_t> updates_applied_{0};
  std::atomic<size_t> updates_rejected_{0};

  mutable std::mutex stats_mu_;
  size_t batches_ = 0;                       // guarded by stats_mu_
  std::vector<size_t> batch_size_counts_;    // guarded by stats_mu_
  LatencyHistogram latency_;                 // guarded by stats_mu_
};

/// Validates `options` (positive queue capacity and workers; a target
/// queue delay in [0, 1e15) — kInvalidArgument otherwise),
/// requires a non-empty catalog (kFailedPrecondition), and starts the
/// worker threads. The service owns the catalog from here on.
StatusOr<std::unique_ptr<QueryService>> MakeQueryService(
    VenueCatalog catalog, ServiceOptions options = ServiceOptions());

}  // namespace itspq

#endif  // ITSPQ_SERVER_QUERY_SERVICE_H_
