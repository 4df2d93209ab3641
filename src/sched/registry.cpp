#include "sched/scheduler.h"

#include <memory>

#include "sched/aniello.h"
#include "sched/local_search.h"
#include "sched/round_robin.h"
#include "sched/rstorm.h"
#include "sched/traffic_aware.h"

namespace tstorm::sched {
namespace {

template <typename Algorithm>
void add_builtin(AlgorithmRegistry& registry, const std::string& name) {
  registry.register_algorithm(name,
                              [] { return std::make_unique<Algorithm>(); });
}

}  // namespace

AlgorithmRegistry::AlgorithmRegistry() {
  add_builtin<TrafficAwareScheduler>(*this, "traffic-aware");
  add_builtin<RoundRobinScheduler>(*this, "round-robin");
  add_builtin<TStormInitialScheduler>(*this, "tstorm-initial");
  add_builtin<AnielloOfflineScheduler>(*this, "aniello-offline");
  add_builtin<AnielloOnlineScheduler>(*this, "aniello-online");
  add_builtin<LocalSearchScheduler>(*this, "local-search");
  add_builtin<RStormScheduler>(*this, "rstorm");
}

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry registry;
  return registry;
}

bool AlgorithmRegistry::register_algorithm(const std::string& name,
                                           Factory factory) {
  for (const auto& [n, f] : factories_) {
    if (n == name) return false;
  }
  factories_.emplace_back(name, std::move(factory));
  return true;
}

std::unique_ptr<ISchedulingAlgorithm> AlgorithmRegistry::create(
    const std::string& name) const {
  for (const auto& [n, f] : factories_) {
    if (n == name) return f();
  }
  return nullptr;
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [n, f] : factories_) out.push_back(n);
  return out;
}

}  // namespace tstorm::sched
