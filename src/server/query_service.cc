#include "server/query_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace itspq {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

/// Absolute deadline `micros` from `now`; +infinity (or anything past
/// the clock's range) means no deadline.
std::chrono::steady_clock::time_point DeadlineFor(
    std::chrono::steady_clock::time_point now, double micros) {
  if (!(micros < 1e15)) return std::chrono::steady_clock::time_point::max();
  return now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::micro>(micros));
}

}  // namespace

QueryService::QueryService(VenueCatalog catalog, ServiceOptions options)
    : catalog_(std::move(catalog)),
      router_(catalog_),
      options_(options),
      paused_(options.start_paused),
      batch_size_counts_(kMaxBatch + 1, 0) {
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  updater_ = std::thread([this] { UpdaterLoop(); });
}

QueryService::~QueryService() { Shutdown(); }

std::future<StatusOr<QueryResult>> QueryService::Submit(
    const QueryRequest& request, double deadline_micros, QosClass qos) {
  auto promise = std::make_shared<std::promise<StatusOr<QueryResult>>>();
  Submit(request, deadline_micros, qos, [promise](StatusOr<QueryResult> r) {
    promise->set_value(std::move(r));
  });
  return promise->get_future();
}

size_t QueryService::TotalQueuedLocked() const {
  size_t total = 0;
  for (const std::deque<Pending>& queue : queues_) total += queue.size();
  return total;
}

size_t QueryService::QueueLimitLocked() const {
  size_t limit = options_.queue_capacity;
  if (options_.target_queue_delay_micros > 0) {
    const double ewma = ewma_route_micros_.load(kRelaxed);
    if (ewma > 0) {
      const double ideal = options_.target_queue_delay_micros *
                           static_cast<double>(options_.num_workers) / ewma;
      size_t adaptive = options_.min_queue_limit;
      if (ideal > static_cast<double>(adaptive)) {
        adaptive = ideal >= static_cast<double>(options_.queue_capacity)
                       ? options_.queue_capacity
                       : static_cast<size_t>(ideal);
      }
      limit = std::min(limit, adaptive);
    }
  }
  return limit;
}

void QueryService::Submit(const QueryRequest& request,
                          double deadline_micros, QosClass qos, Done done) {
  submitted_.fetch_add(1, kRelaxed);
  const size_t class_index = static_cast<size_t>(qos);
  const bool known_class = class_index < kNumQosClasses;
  if (known_class) submitted_by_class_[class_index].fetch_add(1, kRelaxed);
  const size_t kind_index = static_cast<size_t>(request.kind);
  const bool known_kind = kind_index < kNumQueryKinds;
  if (known_kind) submitted_by_kind_[kind_index].fetch_add(1, kRelaxed);
  const Clock::time_point now = Clock::now();
  // Cold shards load on the long-lived workers, never inline.
  const bool may_inline = qos == QosClass::kInteractive &&
                          catalog_.Contains(request.venue_id) &&
                          catalog_.IsResident(request.venue_id);

  // Everything that allocates (the request copy) happens outside mu_ —
  // workers contend on that mutex, so the admission critical section
  // is just the queue push / displacement.
  Pending pending;
  pending.request = request;
  pending.qos = qos;
  pending.submit = now;
  pending.done = std::move(done);

  Status rejection;
  Pending victim;
  bool have_victim = false;
  bool run_inline = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      rejected_shutdown_.fetch_add(1, kRelaxed);
      rejection = FailedPreconditionError("query service is shut down");
    } else if (!known_class) {
      rejected_invalid_.fetch_add(1, kRelaxed);
      rejection = InvalidArgumentError(
          "unknown QoS class " + std::to_string(class_index));
    } else if (!known_kind) {
      // Rejecting here (not at the router) keeps a malformed kind from
      // wasting a queue slot just to fail the strategy's validation.
      rejected_invalid_.fetch_add(1, kRelaxed);
      rejection = InvalidArgumentError(
          "unknown query kind " + std::to_string(kind_index));
    } else if (std::isnan(deadline_micros) || deadline_micros < 0) {
      // Neither may reach DeadlineFor: !(NaN < 1e15) reads as "no
      // deadline", silently admitting a malformed request as immortal,
      // and a -inf deadline overflows the duration cast.
      rejected_invalid_.fetch_add(1, kRelaxed);
      rejection =
          InvalidArgumentError("deadline_micros must be a non-negative "
                               "number, got NaN or a negative value");
    } else if (deadline_micros == 0) {
      rejected_expired_.fetch_add(1, kRelaxed);
      rejection = DeadlineExceededError("deadline expired before admission");
    } else {
      pending.deadline = DeadlineFor(now, deadline_micros);
      // Feasibility gate: with the observed per-request route time and
      // the queue depth this class would wait behind, can the deadline
      // still be met? Shedding now beats timing out in the queue later
      // — the client learns immediately and the slot serves someone
      // who can still win.
      const double ewma = ewma_route_micros_.load(kRelaxed);
      bool infeasible = false;
      if (ewma > 0 && deadline_micros < 1e15) {
        size_t queued_ahead = 0;
        for (size_t c = 0; c <= class_index; ++c) {
          queued_ahead += queues_[c].size();
        }
        const double predicted_micros =
            static_cast<double>(queued_ahead + 1) * ewma /
            static_cast<double>(options_.num_workers);
        infeasible = predicted_micros > deadline_micros;
      }
      const size_t limit = QueueLimitLocked();
      if (infeasible) {
        shed_infeasible_.fetch_add(1, kRelaxed);
        shed_by_class_[class_index].fetch_add(1, kRelaxed);
        rejection = ResourceExhaustedError(
            "shed: deadline infeasible at current queue depth");
      } else if (TotalQueuedLocked() >= limit) {
        // At the limit: a higher-priority arrival displaces the
        // youngest queued request of the lowest class present; an
        // arrival with nothing below it bounces with plain
        // backpressure.
        size_t victim_class = kNumQosClasses;
        for (size_t c = kNumQosClasses; c-- > class_index + 1;) {
          if (!queues_[c].empty()) {
            victim_class = c;
            break;
          }
        }
        if (victim_class < kNumQosClasses) {
          victim = std::move(queues_[victim_class].back());
          queues_[victim_class].pop_back();
          have_victim = true;
          shed_displaced_.fetch_add(1, kRelaxed);
          shed_by_class_[victim_class].fetch_add(1, kRelaxed);
          queues_[class_index].push_back(std::move(pending));
          admitted_.fetch_add(1, kRelaxed);
        } else {
          rejected_queue_full_.fetch_add(1, kRelaxed);
          rejection = ResourceExhaustedError("submission queue is full");
        }
      } else {
        // Alone in an idle service with dispatch capacity free, it
        // leaves the queue at once: the submitter routes it inline.
        const size_t depth = TotalQueuedLocked() + 1;
        queue_high_water_ = std::max(queue_high_water_, depth);
        admitted_.fetch_add(1, kRelaxed);
        run_inline = may_inline && depth == 1 && !paused_ &&
                     active_ < options_.num_workers;
        if (!run_inline) queues_[class_index].push_back(std::move(pending));
        active_ += run_inline ? 1 : 0;
      }
    }
  }
  if (have_victim) {
    victim.done(ResourceExhaustedError(
        "shed: displaced by higher-priority traffic"));
  }
  if (!rejection.ok()) {
    pending.done(std::move(rejection));
  } else if (run_inline) {
    thread_local QueryContext context;
    Dispatch(&pending, 1, &context);
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    if (draining_) cv_.notify_all();  // Shutdown waits for active_ == 0
  } else {
    cv_.notify_one();
  }
}

std::future<Status> QueryService::SubmitUpdate(const AtiUpdate& update) {
  updates_submitted_.fetch_add(1, kRelaxed);

  PendingUpdate pending;
  pending.update = update;
  std::future<Status> future = pending.promise.get_future();

  Status rejection;
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    if (update_draining_) {
      rejection = FailedPreconditionError("query service is shut down");
    } else if (update_queue_.size() >= options_.update_queue_capacity) {
      rejection = ResourceExhaustedError("update queue is full");
    } else {
      update_queue_.push_back(std::move(pending));
    }
  }
  if (!rejection.ok()) {
    updates_rejected_.fetch_add(1, kRelaxed);
    pending.promise.set_value(std::move(rejection));
  } else {
    update_cv_.notify_one();
  }
  return future;
}

void QueryService::UpdaterLoop() {
  for (;;) {
    PendingUpdate pending;
    {
      std::unique_lock<std::mutex> lock(update_mu_);
      update_cv_.wait(lock, [this] {
        return update_draining_ || !update_queue_.empty();
      });
      // Drain-to-empty before exiting: every admitted update commits.
      if (update_queue_.empty()) return;
      pending = std::move(update_queue_.front());
      update_queue_.pop_front();
    }
    // The epoch transition runs outside update_mu_ so SubmitUpdate
    // admission never blocks on an in-flight apply; FIFO order is
    // preserved because this is the only consumer.
    Status status = catalog_.ApplyAtiUpdate(pending.update).status();
    if (status.ok()) {
      updates_applied_.fetch_add(1, kRelaxed);
    } else {
      updates_rejected_.fetch_add(1, kRelaxed);
    }
    pending.promise.set_value(std::move(status));
  }
}

void QueryService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    paused_ = false;
  }
  cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    update_draining_ = true;
  }
  update_cv_.notify_all();
  // Exactly one caller joins; concurrent Shutdowns block here until the
  // drain completes, so "Shutdown returned" always means "quiesced".
  // The updater drains its admitted queue before exiting, so every
  // SubmitUpdate future is resolved by the time Shutdown returns.
  std::call_once(join_once_, [this] {
    for (std::thread& worker : workers_) worker.join();
    updater_.join();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return active_ == 0; });
  });
}

void QueryService::WorkerLoop() {
  // One context for the worker's lifetime: scratch allocations amortise
  // across every batch this thread ever serves.
  QueryContext context;
  std::vector<Pending> batch;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] {
      return draining_ || (!paused_ && TotalQueuedLocked() > 0);
    });
    // The predicate only passes with empty queues when draining.
    if (TotalQueuedLocked() == 0) return;
    // Take what is queued, in class order so interactive work never
    // waits behind background, and dispatch it without waiting.
    batch.clear();
    for (std::deque<Pending>& queue : queues_) {
      for (; batch.size() < kMaxBatch && !queue.empty(); queue.pop_front()) {
        batch.push_back(std::move(queue.front()));
      }
    }
    ++active_;
    lock.unlock();
    Dispatch(batch.data(), batch.size(), &context);
    lock.lock();
    --active_;
  }
}

void QueryService::Dispatch(Pending* batch, size_t size,
                            QueryContext* context) {
  // Deadline gate #1: requests that died waiting never reach the
  // router. The live ones close up at the front of the batch.
  const Clock::time_point start = Clock::now();
  size_t live = 0;
  for (size_t i = 0; i < size; ++i) {
    if (start >= batch[i].deadline) {
      timed_out_in_queue_.fetch_add(1, kRelaxed);
      batch[i].done(
          DeadlineExceededError("deadline expired in the submission queue"));
    } else {
      if (live != i) batch[live] = std::move(batch[i]);
      ++live;
    }
  }
  if (live == 0) return;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++batches_;
    ++batch_size_counts_[live];
  }

  // Workers are the parallelism, so the batch runs in order on this
  // thread's long-lived context, and each reply leaves as soon as its
  // route finishes rather than when the whole batch has.
  double route_micros = 0;
  for (size_t i = 0; i < live; ++i) {
    Pending& pending = batch[i];
    const Clock::time_point routing = Clock::now();
    StatusOr<QueryResult> result = router_.Route(pending.request, context);
    const Clock::time_point routed = Clock::now();
    route_micros +=
        std::chrono::duration<double, std::micro>(routed - routing).count();
    if (i + 1 == live) {
      // Feed the admission-side signals one sample per batch, its mean
      // route time, before the last reply leaves, so a caller holding
      // that reply sees the batch in Stats(). The first sample seeds
      // the EWMA; later ones decay at 0.9 so a load shift shows up
      // within a few dozen batches.
      const double sample = route_micros / static_cast<double>(live);
      const double previous = ewma_route_micros_.load(kRelaxed);
      ewma_route_micros_.store(
          previous == 0 ? sample : 0.9 * previous + 0.1 * sample, kRelaxed);
    }

    // Deadline gate #2: a client whose deadline passed mid-route has
    // given up — the answer is dropped, not delivered late. The ledger
    // settles before delivery, so Stats() covers a delivered answer.
    if (routed >= pending.deadline) {
      timed_out_in_flight_.fetch_add(1, kRelaxed);
      result = DeadlineExceededError("deadline expired during dispatch");
    } else {
      served_.fetch_add(1, kRelaxed);
      served_by_class_[static_cast<size_t>(pending.qos)].fetch_add(1, kRelaxed);
      const size_t kind = static_cast<size_t>(pending.request.kind);
      if (kind < kNumQueryKinds) served_by_kind_[kind].fetch_add(1, kRelaxed);
      if (!result.ok()) {
        route_errors_.fetch_add(1, kRelaxed);
      } else if (result->found) {
        served_found_.fetch_add(1, kRelaxed);
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      latency_.Record(
          std::chrono::duration<double, std::micro>(routed - pending.submit)
              .count());
    }
    pending.done(std::move(result));
  }
}

ServiceStats QueryService::Stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.load(kRelaxed);
  stats.admitted = admitted_.load(kRelaxed);
  stats.rejected_queue_full = rejected_queue_full_.load(kRelaxed);
  stats.rejected_expired = rejected_expired_.load(kRelaxed);
  stats.rejected_invalid = rejected_invalid_.load(kRelaxed);
  stats.rejected_shutdown = rejected_shutdown_.load(kRelaxed);
  stats.shed_displaced = shed_displaced_.load(kRelaxed);
  stats.shed_infeasible = shed_infeasible_.load(kRelaxed);
  stats.timed_out_in_queue = timed_out_in_queue_.load(kRelaxed);
  stats.timed_out_in_flight = timed_out_in_flight_.load(kRelaxed);
  stats.served = served_.load(kRelaxed);
  stats.served_found = served_found_.load(kRelaxed);
  stats.route_errors = route_errors_.load(kRelaxed);
  for (size_t c = 0; c < kNumQosClasses; ++c) {
    stats.submitted_by_class[c] = submitted_by_class_[c].load(kRelaxed);
    stats.served_by_class[c] = served_by_class_[c].load(kRelaxed);
    stats.shed_by_class[c] = shed_by_class_[c].load(kRelaxed);
  }
  for (size_t k = 0; k < kNumQueryKinds; ++k) {
    stats.submitted_by_kind[k] = submitted_by_kind_[k].load(kRelaxed);
    stats.served_by_kind[k] = served_by_kind_[k].load(kRelaxed);
  }
  stats.ewma_route_micros = ewma_route_micros_.load(kRelaxed);
  stats.updates_submitted = updates_submitted_.load(kRelaxed);
  stats.updates_applied = updates_applied_.load(kRelaxed);
  stats.updates_rejected = updates_rejected_.load(kRelaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queue_depth = TotalQueuedLocked();
    stats.queue_high_water = queue_high_water_;
    stats.queue_limit = QueueLimitLocked();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats.batches = batches_;
    stats.batch_size_counts = batch_size_counts_;
    stats.latency = latency_;
  }
  stats.catalog = catalog_.Stats();
  return stats;
}

StatusOr<std::unique_ptr<QueryService>> MakeQueryService(
    VenueCatalog catalog, ServiceOptions options) {
  if (catalog.NumVenues() == 0) {
    return FailedPreconditionError(
        "query service needs a catalog with at least one venue");
  }
  if (options.queue_capacity == 0) {
    return InvalidArgumentError(
        "service options: queue_capacity must be positive");
  }
  if (options.num_workers < 1) {
    return InvalidArgumentError(
        "service options: num_workers must be positive");
  }
  if (!(options.target_queue_delay_micros >= 0) ||
      !(options.target_queue_delay_micros < 1e15)) {
    return InvalidArgumentError(
        "service options: target_queue_delay_micros must be in [0, 1e15)");
  }
  if (options.min_queue_limit == 0) {
    return InvalidArgumentError(
        "service options: min_queue_limit must be positive");
  }
  if (options.update_queue_capacity == 0) {
    return InvalidArgumentError(
        "service options: update_queue_capacity must be positive");
  }
  return std::unique_ptr<QueryService>(
      new QueryService(std::move(catalog), options));
}

}  // namespace itspq
