// LocalSearchScheduler: an extension beyond the paper. Algorithm 1 is a
// single-pass greedy ("finding the best scheduling solution is quite
// challenging", section III); this scheduler starts from Algorithm 1's
// placement and hill-climbs with single-executor moves and same-topology
// swaps, accepting any step that strictly reduces inter-node traffic while
// preserving all three of Algorithm 1's constraints (the same count limit
// as the greedy; equal gains go to the lowest node id). It quantifies how
// much traffic the greedy leaves on the table at a bounded extra cost: at
// most 8 passes, stopping once a pass gains under 0.1% of the remaining
// inter-node traffic.
#pragma once

#include "sched/scheduler.h"

namespace tstorm::sched {

class LocalSearchScheduler final : public ISchedulingAlgorithm {
 public:
  ScheduleResult schedule(const SchedulerInput& input) override;

  [[nodiscard]] std::string name() const override { return "local-search"; }
};

}  // namespace tstorm::sched
