#include "sched/rstorm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_set>

#include "sched/placement_state.h"

namespace tstorm::sched {
namespace {

/// Term weights of the squared distance. Network distance dominates —
/// R-Storm's ordering is network proximity first, then resource fit (the
/// paper's theta_1 >> theta_2, theta_3).
constexpr double kNetworkDistanceWeight = 10.0;
constexpr double kCpuWeight = 1.0;
constexpr double kBandwidthWeight = 1.0;

/// Breadth-first task order per topology, spouts first — R-Storm walks the
/// topology DAG so each task is placed right after its upstream
/// neighbours, letting the network-distance term pull it next to them.
/// Deterministic: roots and adjacency are visited in ascending task id;
/// tasks unreachable from any root are appended in ascending id.
std::vector<TaskId> bfs_order(
    const std::vector<TaskId>& tasks,
    const std::vector<std::pair<TaskId, TaskId>>& edges) {
  std::map<TaskId, int> in_degree;  // also the member set, ascending
  for (TaskId t : tasks) in_degree[t] = 0;
  std::map<TaskId, std::vector<TaskId>> out;
  for (const auto& [a, b] : edges) {
    if (!in_degree.contains(a) || !in_degree.contains(b)) continue;
    out[a].push_back(b);
    in_degree[b] += 1;
  }
  for (auto& [t, v] : out) std::sort(v.begin(), v.end());

  // `order` doubles as the BFS queue: tasks are appended when first seen.
  std::vector<TaskId> order;
  order.reserve(in_degree.size());
  std::unordered_set<TaskId> seen;
  const auto visit = [&](TaskId t) {
    if (seen.insert(t).second) order.push_back(t);
  };
  for (const auto& [t, degree] : in_degree) {
    if (degree == 0) visit(t);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    auto it = out.find(order[i]);
    if (it == out.end()) continue;
    for (TaskId next : it->second) visit(next);
  }
  for (const auto& [t, degree] : in_degree) visit(t);  // cycles
  return order;
}

}  // namespace

ScheduleResult RStormScheduler::schedule(const SchedulerInput& in) {
  ScheduleResult result;
  PlacementState st(in);
  // The reference node follows traffic; before any traffic has been
  // measured, topology edges stand in with unit weight.
  st.link_topology_edges_if_no_traffic();
  std::map<TopologyId, std::vector<TaskId>> tasks_by_topo;
  for (const auto& e : in.executors) {
    tasks_by_topo[e.topology].push_back(e.task);
  }

  for (const auto& [topo, tasks] : tasks_by_topo) {
    for (TaskId t : bfs_order(tasks, in.topology_edges)) {
      const ResourceVector& demand = st.task(t).demand;

      // Reference node: where the heaviest-traffic already-placed
      // neighbour lives (R-Storm measures network distance from there).
      NodeId ref_node = -1;
      double ref_rate = -1;
      for (const auto& [peer, rate] : st.task(t).links) {
        const NodeId pn = st.task(peer).node;
        if (pn < 0) continue;
        if (rate > ref_rate || (rate == ref_rate && pn < ref_node)) {
          ref_rate = rate;
          ref_node = pn;
        }
      }

      // Passes: all constraints -> soft (CPU, bandwidth) relaxed -> memory
      // relaxed too. Memory is R-Storm's only hard resource constraint.
      SlotIndex best = kUnassigned;
      for (int pass = 0; pass < 3; ++pass) {
        const bool enforce_soft = pass == 0;
        const bool enforce_memory = pass <= 1;
        double best_dist = std::numeric_limits<double>::infinity();

        for (NodeId k = 0; k <= st.max_node(); ++k) {
          const SlotIndex slot = st.eligible_slot(topo, k);
          if (slot == kUnassigned) continue;
          const ResourceVector& used = st.node(k).used;
          const ResourceVector cap = in.node_capacity(k);

          const bool mem_ok =
              used[kMemoryMib] + demand[kMemoryMib] <= cap[kMemoryMib];
          if (enforce_memory && !mem_ok) continue;
          if (enforce_soft && !st.fits(t, k, false)) continue;

          // Network distance dominates (co-locate with the chatty
          // neighbour whenever the node fits); the resource terms score
          // utilization *after* placement, so the most headroom wins
          // instead of R-Storm's best-fit (see rstorm.h). Terms are
          // normalized by capacity so "almost full" means the same on a
          // big and a small node; an unconstrained (infinite or
          // zero-capacity) dimension contributes nothing.
          double dist = kNetworkDistanceWeight *
                        (ref_node >= 0 && k != ref_node ? 1.0 : 0.0);
          const auto fit_term = [&](std::size_t d) {
            if (!(cap[d] > 0) || std::isinf(cap[d])) return 0.0;
            const double util = (used[d] + demand[d]) / cap[d];
            return util * util;
          };
          dist += kCpuWeight * fit_term(kCpuMhz);
          dist += kBandwidthWeight * fit_term(kNetworkMbps);

          if (dist < best_dist - 1e-12) {  // ties keep the lowest node id
            best_dist = dist;
            best = slot;
          }
        }

        if (best != kUnassigned) {
          if (pass >= 1) result.capacity_relaxed = true;
          break;
        }
      }

      if (best == kUnassigned) continue;  // out of slots entirely

      st.place(t, best);
      result.assignment[t] = best;
    }
  }

  return result;
}

}  // namespace tstorm::sched
