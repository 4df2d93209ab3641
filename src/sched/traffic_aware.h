// Algorithm 1 from the paper: traffic-aware online scheduling.
//
// Places executors in connected traffic order: next is the unplaced one
// with the most traffic to executors already placed; ties, and the first
// executor of each connected component, follow the paper's line 2 order
// (descending total incoming + outgoing traffic, then task id). Each is
// greedily assigned to the feasible slot with minimum incremental
// inter-node traffic, subject to three per-node constraints:
//   (1) executors of one topology occupy at most one slot per node
//       (eliminates inter-process traffic within a topology);
//   (2) node workload stays within capacity C_k;
//   (3) at most ceil(gamma * Ne / K) executors per node (consolidation
//       factor gamma: 1 = spread evenly, larger = pack onto fewer nodes).
// When no slot satisfies all three, the count constraint is relaxed first,
// then capacity; constraint (1) is never relaxed. Queue pressure enters
// through SchedulerInput::queue_pressure_weight, as for every scheduler.
// Complexity O(Ne log Ne + E log Ne + Ne * Ns) for E traffic entries; the
// paper's section IV-C claims O(Ne log Ne + Ne * Ns) for its static order.
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
