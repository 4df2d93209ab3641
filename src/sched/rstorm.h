// R-Storm: resource-aware placement (Peng et al., Middleware '15).
// Traverses each topology breadth-first from its spouts and places every
// task on the node minimizing a soft-constraint distance, with memory as
// a hard constraint and a dominant network-distance term that pulls
// communicating tasks onto the same node. The resource terms rank
// feasible nodes by post-placement utilization (most headroom first)
// rather than the paper's strict best-fit (smallest leftover gap): that is
// sound for user-declared demands, but with measured, EWMA-lagged
// estimates it systematically overloads the weakest node of a
// heterogeneous fleet; production resource-aware schedulers order
// candidates by available headroom for the same reason.
// When no node satisfies the constraints, the soft constraints (CPU,
// bandwidth) are dropped, then the memory hard constraint too, and
// ScheduleResult::capacity_relaxed is set.
#pragma once

#include "sched/scheduler.h"

namespace tstorm::sched {

class RStormScheduler final : public ISchedulingAlgorithm {
 public:
  ScheduleResult schedule(const SchedulerInput& input) override;

  [[nodiscard]] std::string name() const override { return "rstorm"; }
};

}  // namespace tstorm::sched
