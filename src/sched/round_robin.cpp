#include "sched/round_robin.h"

#include <algorithm>
#include <map>
#include <unordered_set>

namespace tstorm::sched {
namespace {

/// Free slots interleaved across nodes: (port 0, node 0), (port 0, node 1),
/// ..., (port 1, node 0), ... — Storm's slot ordering.
std::vector<SlotSpec> interleaved_free_slots(const SchedulerInput& in) {
  const auto occupied = occupied_slot_set(in);
  std::vector<SlotSpec> slots;
  for (const auto& s : in.slots) {
    if (!occupied.contains(s.slot)) slots.push_back(s);
  }
  std::sort(slots.begin(), slots.end(),
            [](const SlotSpec& a, const SlotSpec& b) {
              if (a.port != b.port) return a.port < b.port;
              return a.node < b.node;
            });
  return slots;
}

/// Executors grouped by topology, preserving input (task) order. With
/// queue pressure enabled, each group is dealt heaviest-effective-load
/// first so backlogged executors land on distinct workers before the deal
/// wraps around (weight 0 keeps the historical input order exactly).
std::map<TopologyId, std::vector<const ExecutorSpec*>> by_topology(
    const SchedulerInput& in) {
  std::map<TopologyId, std::vector<const ExecutorSpec*>> groups;
  for (const auto& e : in.executors) groups[e.topology].push_back(&e);
  const double qw = in.queue_pressure_weight;
  if (qw > 0) {
    for (auto& [topo, execs] : groups) {
      std::stable_sort(execs.begin(), execs.end(),
                       [qw](const ExecutorSpec* a, const ExecutorSpec* b) {
                         return a->effective_load(qw) > b->effective_load(qw);
                       });
    }
  }
  return groups;
}

}  // namespace

ScheduleResult RoundRobinScheduler::schedule(const SchedulerInput& in) {
  ScheduleResult result;
  auto slots = interleaved_free_slots(in);
  std::size_t next_slot = 0;

  for (auto& [topo, execs] : by_topology(in)) {
    const int nu = std::max(1, requested_workers(in, topo));
    // Claim min(Nu, free) slots for this topology's workers.
    std::vector<SlotIndex> workers;
    while (static_cast<int>(workers.size()) < nu && next_slot < slots.size()) {
      workers.push_back(slots[next_slot++].slot);
    }
    if (workers.empty()) continue;  // cluster out of slots
    // Deal executors round-robin into the workers.
    for (std::size_t i = 0; i < execs.size(); ++i) {
      result.assignment[execs[i]->task] = workers[i % workers.size()];
    }
  }
  audit_capacity(in, result);  // capacity-blind: flag overcommit post hoc
  return result;
}

ScheduleResult TStormInitialScheduler::schedule(const SchedulerInput& in) {
  ScheduleResult result;
  auto occupied = occupied_slot_set(in);

  for (auto& [topo, execs] : by_topology(in)) {
    // First free slot on each node, nodes in ascending order.
    std::map<NodeId, SlotSpec> per_node;
    for (const auto& s : in.slots) {
      if (occupied.contains(s.slot)) continue;
      auto it = per_node.find(s.node);
      if (it == per_node.end() || s.port < it->second.port) {
        per_node[s.node] = s;
      }
    }
    const int nw = static_cast<int>(per_node.size());
    const int nu = std::max(1, requested_workers(in, topo));
    const int n_workers = std::min(nu, nw);
    if (n_workers == 0) continue;

    std::vector<SlotIndex> workers;
    for (const auto& [node, slot] : per_node) {
      if (static_cast<int>(workers.size()) >= n_workers) break;
      workers.push_back(slot.slot);
      occupied.insert(slot.slot);  // not reusable by the next topology
    }
    for (std::size_t i = 0; i < execs.size(); ++i) {
      result.assignment[execs[i]->task] = workers[i % workers.size()];
    }
  }
  audit_capacity(in, result);  // capacity-blind: flag overcommit post hoc
  return result;
}

}  // namespace tstorm::sched
