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

  // --- Line 2: connected traffic order. ---
  // Line 2's static order, total traffic descending then task id, ranks
  // the executors. The next executor placed is the unplaced one with the
  // most traffic to executors already placed (ties: lower rank); when no
  // unplaced executor talks to a placed one, the lowest-ranked unplaced
  // executor starts the next connected component.
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
  // rank[i]: position in that order of the executor at input index i.
  std::vector<std::size_t> rank(order.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    rank[static_cast<std::size_t>(order[r] - in.executors.data())] = r;
  }

  // Indexed binary max-heap of the unplaced executors that talk to placed
  // ones, by (traffic to placed executors, lower rank); pos[r] is rank r's
  // index in it, or kOut. Keys only grow, so an update sifts up.
  constexpr std::size_t kOut = static_cast<std::size_t>(-1);
  std::vector<double> key(order.size(), 0.0);
  std::vector<bool> done(order.size(), false);
  std::vector<std::size_t> heap;
  std::vector<std::size_t> pos(order.size(), kOut);
  const auto above = [&](std::size_t a, std::size_t b) {
    return key[a] > key[b] || (key[a] == key[b] && a < b);
  };
  const auto put = [&](std::size_t h, std::size_t r) {
    heap[h] = r;
    pos[r] = h;
  };
  const auto sift_up = [&](std::size_t h) {
    const std::size_t r = heap[h];
    for (; h > 0 && above(r, heap[(h - 1) / 2]); h = (h - 1) / 2) {
      put(h, heap[(h - 1) / 2]);
    }
    put(h, r);
  };
  const auto pop_top = [&] {
    const std::size_t top = heap.front();
    const std::size_t r = heap.back();
    heap.pop_back();
    pos[top] = kOut;
    if (heap.empty()) return top;
    std::size_t h = 0;
    for (std::size_t c = 1; c < heap.size(); c = 2 * h + 1) {
      if (c + 1 < heap.size() && above(heap[c + 1], heap[c])) ++c;
      if (!above(heap[c], r)) break;
      put(h, heap[c]);
      h = c;
    }
    put(h, r);
    return top;
  };
  std::size_t next_static = 0;

  // --- Line 3-7: greedy assignment. ---
  std::vector<double> traffic_on_node;
  for (std::size_t step = 0; step < order.size(); ++step) {
    std::size_t i = 0;
    if (heap.empty()) {
      while (done[next_static]) ++next_static;
      i = next_static;
    } else {
      i = pop_top();
    }
    done[i] = true;
    const ExecutorSpec* e = order[i];

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
        // each choice is greedy and never revisited, which is not optimal
        // in general (see LocalSearch.FixesChainPartitioning).
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
    for (const auto& link : st.task(e->task).links) {
      const std::size_t r = rank[link.task->index];
      if (done[r]) continue;
      key[r] += link.rate;
      if (pos[r] == kOut) {
        pos[r] = heap.size();
        heap.push_back(r);
      }
      sift_up(pos[r]);
    }
  }

  return result;
}

}  // namespace tstorm::sched
