#include "query/registry.h"

#include <utility>

#include "query/strategies.h"

namespace itspq {

RouterRegistry& RouterRegistry::Global() {
  // Built-ins are registered in the accessor (not by file-scope
  // registrar objects) so static-library linking can never drop them.
  static RouterRegistry* registry = [] {
    auto* r = new RouterRegistry();
    for (TvCheck check :
         {TvCheck::kSynchronous, TvCheck::kAsynchronous,
          TvCheck::kAsynchronousStrict, TvCheck::kSnapshot, TvCheck::kNone}) {
      (void)r->Register(TvCheckName(check),
                        [check](const ItGraph& graph,
                                const RouterBuildOptions& options) {
                          return std::make_unique<TemporalRouter>(
                              graph, check, options);
                        });
    }
    return r;
  }();
  return *registry;
}

Status RouterRegistry::Register(const std::string& name, Factory factory) {
  if (name.empty()) {
    return InvalidArgumentError("router name must be non-empty");
  }
  if (factory == nullptr) {
    return InvalidArgumentError("router factory must be non-null");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const bool inserted =
      factories_.emplace(name, std::move(factory)).second;
  if (!inserted) {
    return InvalidArgumentError("router '" + name + "' already registered");
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<Router>> RouterRegistry::Create(
    const std::string& name, const ItGraph& graph,
    const RouterBuildOptions& options) const {
  // Surface a bad policy name (including empty) here, where there is a
  // Status channel — the store constructor itself can only fall back.
  auto policy = MakeEvictionPolicy(options.snapshot_cache.policy, 1);
  if (!policy.ok()) return policy.status();
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      return NotFoundError("unknown router '" + name + "'");
    }
    factory = it->second;
  }
  return factory(graph, options);
}

bool RouterRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.find(name) != factories_.end();
}

std::vector<std::string> RouterRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

StatusOr<std::unique_ptr<Router>> MakeRouter(const std::string& name,
                                             const ItGraph& graph,
                                             const RouterBuildOptions& options) {
  return RouterRegistry::Global().Create(name, graph, options);
}

}  // namespace itspq
