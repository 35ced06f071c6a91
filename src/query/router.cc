#include "query/router.h"

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
      checkpoints_(precomputed != nullptr ? precomputed : &owned_checkpoints_) {
  if (precomputed == nullptr) {
    owned_checkpoints_ = CheckpointSet::FromGraph(graph);
  }
}

Router::Router(std::string name) : name_(std::move(name)), graph_(nullptr) {}

size_t Router::MemoryUsage() const {
  return owned_checkpoints_.times().capacity() * sizeof(double);
}

}  // namespace itspq
