#include "sched/traffic_aware.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "sched/placement_state.h"

namespace tstorm::sched {

ScheduleResult TrafficAwareScheduler::schedule(const SchedulerInput& in) {
  PlacementState state(in);
  return traffic_aware_pass(state);
}

ScheduleResult traffic_aware_pass(PlacementState& st) {
  const SchedulerInput& in = st.input();
  ScheduleResult result;

  // --- Line 2: sort executors by descending total traffic. ---
  std::vector<const ExecutorSpec*> order;
  order.reserve(in.executors.size());
  for (const auto& e : in.executors) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [&](const ExecutorSpec* a, const ExecutorSpec* b) {
              const double ta = st.task(a->task).total_traffic;
              const double tb = st.task(b->task).total_traffic;
              if (ta != tb) return ta > tb;
              return a->task < b->task;  // deterministic tie-break
            });

  // --- Line 3-7: greedy assignment. ---
  std::vector<double> traffic_on_node;
  for (const ExecutorSpec* e : order) {
    // Traffic from e to executors already assigned, grouped by node.
    const double assigned_traffic =
        st.traffic_by_node(e->task, traffic_on_node);

    // Three passes: full constraints, then count relaxed, then capacity
    // relaxed. Constraint (1) always holds.
    SlotIndex best = kUnassigned;
    for (int pass = 0; pass < 3; ++pass) {
      const bool enforce_count = pass == 0;
      const bool enforce_capacity = pass <= 1;
      double best_cost = std::numeric_limits<double>::infinity();
      double best_load = std::numeric_limits<double>::infinity();
      int best_count = -1;

      for (NodeId k = 0; k <= st.max_node(); ++k) {
        // Constraint (1): only the topology's locked slot on a node, or a
        // free one where it holds none.
        const SlotIndex slot = st.eligible_slot(e->topology, k);
        if (slot == kUnassigned) continue;
        if (enforce_capacity && !st.fits(e->task, k, enforce_count)) continue;
        const ResourceVector& used = st.node(k).used;
        const int count = st.node(k).count;

        // Line 5: incremental inter-node traffic of placing e on node k.
        const double cost =
            assigned_traffic - traffic_on_node[static_cast<std::size_t>(k)];

        // Tie-breaks: prefer fuller nodes (consolidation — this is what
        // lets a large gamma pack a light topology onto few nodes, Fig.
        // 5(c)), then lower CPU load in the capacity-relaxed pass, then
        // lower slot index (determinism). Like the paper's Algorithm 1,
        // ties are resolved greedily, which is not optimal for
        // partitioning disjoint chains (see ChainPartitioningIsGreedy
        // test).
        bool better = false;
        if (cost < best_cost - 1e-12) {
          better = true;
        } else if (cost < best_cost + 1e-12) {
          if (!enforce_capacity) {
            better = used[kCpuMhz] < best_load ||
                     (used[kCpuMhz] == best_load && slot < best);
          } else {
            better = count > best_count ||
                     (count == best_count && slot < best);
          }
        }
        if (better) {
          best = slot;
          best_cost = cost;
          best_load = used[kCpuMhz];
          best_count = count;
        }
      }

      if (best != kUnassigned) {
        if (pass >= 1) result.count_relaxed = true;
        if (pass >= 2) result.capacity_relaxed = true;
        break;
      }
    }

    if (best == kUnassigned) {
      // No slot at all (every slot owned by other topologies). Leave the
      // executor unassigned; callers treat a partial placement as failure.
      continue;
    }

    // Line 6: commit x_{i j*} = 1.
    st.place(e->task, best);
    result.assignment[e->task] = best;
  }

  return result;
}

}  // namespace tstorm::sched
