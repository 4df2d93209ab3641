#include "sched/local_search.h"

#include <algorithm>
#include <vector>

#include "sched/placement_state.h"
#include "sched/traffic_aware.h"

namespace tstorm::sched {
namespace {

/// Maximum full improvement passes over all executors.
constexpr int kMaxPasses = 8;
/// Stop when a full pass improves traffic by less than this fraction.
constexpr double kMinGain = 1e-3;

}  // namespace

ScheduleResult LocalSearchScheduler::schedule(const SchedulerInput& in) {
  // Seed with Algorithm 1 and continue from its placement state.
  PlacementState st(in);
  ScheduleResult result = traffic_aware_pass(st);
  if (result.assignment.size() != in.executors.size()) return result;

  std::vector<double> traffic_on_node;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    double pass_gain = 0;
    for (const auto& e : in.executors) {
      st.traffic_by_node(e.task, traffic_on_node);
      const NodeId cur_node = st.task(e.task).node;
      const double cur_local =
          traffic_on_node[static_cast<std::size_t>(cur_node)];

      // Find the best alternative node; equal gains keep the lowest id.
      SlotIndex best_slot = kUnassigned;
      double best_gain = 0;
      for (NodeId node = 0; node <= st.max_node(); ++node) {
        if (node == cur_node) continue;
        const SlotIndex target = st.eligible_slot(e.topology, node);
        if (target == kUnassigned) continue;
        if (!st.fits(e.task, node, true)) continue;
        const double gain =
            traffic_on_node[static_cast<std::size_t>(node)] - cur_local;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_slot = target;
        }
      }
      if (best_slot != kUnassigned) {
        st.remove(e.task);
        st.place(e.task, best_slot);
        result.assignment[e.task] = best_slot;
        pass_gain += best_gain;
      }
    }

    // Swap pass: when nodes sit at the count limit, single moves are
    // infeasible but exchanging two same-topology executors is not.
    for (std::size_t i = 0; i < in.executors.size(); ++i) {
      const auto& e = in.executors[i];
      for (std::size_t j = i + 1; j < in.executors.size(); ++j) {
        const auto& f = in.executors[j];
        if (e.topology != f.topology) continue;
        const SlotIndex se = result.assignment.at(e.task);
        const SlotIndex sf = result.assignment.at(f.task);
        const NodeId na = st.task(e.task).node;
        const NodeId nb = st.task(f.task).node;
        if (na == nb) continue;
        // Direct traffic between the pair stays inter-node either way.
        double r_ef = 0;
        for (const auto& link : st.task(e.task).links) {
          if (link.peer == f.task) r_ef += link.rate;
        }
        const double gain = st.traffic_to(e.task, nb) +
                            st.traffic_to(f.task, na) -
                            st.traffic_to(e.task, na) -
                            st.traffic_to(f.task, nb) - 2.0 * r_ef;
        if (gain <= 1e-9) continue;
        // Capacity after the exchange (counts are unchanged).
        const ResourceVector& de = st.task(e.task).demand;
        const ResourceVector& df = st.task(f.task).demand;
        const auto swap_fits = [&](NodeId n, const ResourceVector& out,
                                   const ResourceVector& inc) {
          ResourceVector used = st.node(n).used;
          for (std::size_t d = 0; d < kResourceDims; ++d) used[d] -= out[d];
          return resource_fits(used, inc, in.node_capacity(n));
        };
        if (!swap_fits(na, de, df) || !swap_fits(nb, df, de)) continue;
        st.remove(e.task);
        st.remove(f.task);
        st.place(e.task, sf);
        st.place(f.task, se);
        result.assignment[e.task] = sf;
        result.assignment[f.task] = se;
        pass_gain += gain;
      }
    }

    const double total = internode_traffic(in, result.assignment);
    if (pass_gain <= kMinGain * std::max(1.0, total)) break;
  }

  return result;
}

}  // namespace tstorm::sched
