// Algorithm 1 from the paper: traffic-aware online scheduling.
//
// Sorts executors by descending total (incoming + outgoing) traffic, then
// greedily assigns each to the feasible slot with minimum incremental
// inter-node traffic, subject to three per-node constraints:
//   (1) executors of one topology occupy at most one slot per node
//       (eliminates inter-process traffic within a topology);
//   (2) node workload stays within capacity C_k;
//   (3) at most ceil(gamma * Ne / K) executors per node (consolidation
//       factor gamma: 1 = spread evenly, larger = pack onto fewer nodes).
// When no slot satisfies all three, the count constraint is relaxed first,
// then capacity; constraint (1) is never relaxed. Queue pressure enters
// through SchedulerInput::queue_pressure_weight, as for every scheduler.
// Complexity O(Ne log Ne + Ne * Ns), as claimed in section IV-C.
#pragma once

#include "sched/scheduler.h"

namespace tstorm::sched {

class PlacementState;

class TrafficAwareScheduler final : public ISchedulingAlgorithm {
 public:
  ScheduleResult schedule(const SchedulerInput& input) override;

  [[nodiscard]] std::string name() const override { return "traffic-aware"; }
};

/// Algorithm 1 on a fresh `state`: places every executor it can (relaxing
/// the count constraint, then capacity, when no slot satisfies all three)
/// and leaves the placement in `state`, where local search continues.
ScheduleResult traffic_aware_pass(PlacementState& state);

}  // namespace tstorm::sched
