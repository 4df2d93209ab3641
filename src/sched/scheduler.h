// Scheduling algorithm interface and the hot-swap registry.
//
// T-Storm decouples schedule *generation* from schedule *application*
// (paper section IV-C): the schedule generator owns an ISchedulingAlgorithm
// that can be replaced at runtime ("hot-swapping of scheduling algorithms")
// without touching Nimbus or the supervisors. The registry maps algorithm
// names to factories so a swap is just a name lookup.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sched/types.h"

namespace tstorm::sched {

class ISchedulingAlgorithm {
 public:
  virtual ~ISchedulingAlgorithm() = default;

  /// Computes an executor-to-slot assignment for the given input. Must
  /// place every executor (relaxing soft constraints if needed) and never
  /// place two topologies in one slot.
  virtual ScheduleResult schedule(const SchedulerInput& input) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Global name -> factory registry. Built-in algorithms self-register:
///   "traffic-aware"   Algorithm 1 (the paper's contribution)
///   "round-robin"     Storm's default scheduler
///   "tstorm-initial"  T-Storm's modified default (N*w = min(Nu, Nw))
///   "aniello-offline" Aniello et al. DEBS'13 offline scheduler
///   "aniello-online"  Aniello et al. DEBS'13 online scheduler
///   "local-search"    Algorithm 1 + hill-climbing move/swap passes
///   "rstorm"          R-Storm resource-aware placement (Middleware '15)
class AlgorithmRegistry {
 public:
  using Factory = std::function<std::unique_ptr<ISchedulingAlgorithm>()>;

  static AlgorithmRegistry& instance();

  /// Returns false if the name is already taken.
  bool register_algorithm(const std::string& name, Factory factory);

  /// Returns nullptr for unknown names.
  [[nodiscard]] std::unique_ptr<ISchedulingAlgorithm> create(
      const std::string& name) const;

  [[nodiscard]] std::vector<std::string> names() const;

 private:
  AlgorithmRegistry();  // registers the built-ins
  std::vector<std::pair<std::string, Factory>> factories_;
};

}  // namespace tstorm::sched
