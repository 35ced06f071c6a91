#include "query/router.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "query/scratch.h"

namespace itspq {

QueryContext::QueryContext()
    : scratch_(std::make_unique<internal::SearchScratch>()) {}
QueryContext::~QueryContext() = default;
QueryContext::QueryContext(QueryContext&&) noexcept = default;
QueryContext& QueryContext::operator=(QueryContext&&) noexcept = default;

Router::Router(std::string name, const ItGraph& graph,
               const CheckpointSet* precomputed)
    : name_(std::move(name)),
      graph_(&graph),
      checkpoints_(precomputed != nullptr ? *precomputed
                                          : CheckpointSet::FromGraph(graph)) {}

Router::Router(std::string name) : name_(std::move(name)), graph_(nullptr) {}

size_t Router::MemoryUsage() const {
  return checkpoints_.times().capacity() * sizeof(double);
}

std::vector<StatusOr<QueryResult>> Router::RouteBatch(
    const std::vector<QueryRequest>& requests,
    const BatchOptions& options) const {
  // Empty batch: nothing to route, no context (caller's or throwaway)
  // is touched. Without this early-out the n == 0 case used to fall
  // into the sequential branch and construct a QueryContext for a loop
  // that never runs.
  if (requests.empty()) return {};

  // Slots start as a placeholder error so a worker dying mid-batch can
  // never surface an uninitialised answer as OK.
  std::vector<StatusOr<QueryResult>> results(
      requests.size(), StatusOr<QueryResult>(InternalError("not routed")));

  const size_t n = requests.size();
  const int threads =
      options.num_threads > 1
          ? static_cast<int>(
                std::min<size_t>(static_cast<size_t>(options.num_threads), n))
          : 1;
  if (threads <= 1) {
    QueryContext local;
    QueryContext* context = options.context ? options.context : &local;
    // A coalesced batch lands on one shard with clustered departures:
    // retain snapshot pins across the loop so consecutive queries skip
    // the per-query store round-trip, then release before returning so
    // a long-lived context doesn't hold masks hostage between batches.
    internal::SearchScratch& scratch = context->scratch();
    scratch.retain_pins = true;
    for (size_t i = 0; i < n; ++i) {
      results[i] = Route(requests[i], context);
    }
    scratch.retain_pins = false;
    scratch.ReleasePins();
    return results;
  }

  // Work-stealing over a shared index: requests vary wildly in cost
  // (off-hours queries finish in microseconds), so static striping
  // would leave workers idle.
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    QueryContext context;
    internal::SearchScratch& scratch = context.scratch();
    scratch.retain_pins = true;
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      results[i] = Route(requests[i], &context);
    }
    // The context dies with the worker; the explicit release just keeps
    // the pin lifetime rule uniform with the sequential path.
    scratch.retain_pins = false;
    scratch.ReleasePins();
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

}  // namespace itspq
