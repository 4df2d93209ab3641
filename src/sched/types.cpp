#include "sched/types.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <unordered_set>

namespace tstorm::sched {
namespace {

std::unordered_map<SlotIndex, NodeId> slot_to_node(const SchedulerInput& in) {
  std::unordered_map<SlotIndex, NodeId> m;
  m.reserve(in.slots.size());
  for (const auto& s : in.slots) m.emplace(s.slot, s.node);
  return m;
}

/// Sum of the traffic between placed executors whose (slot, node) pairs
/// satisfy `counts`.
template <typename Pred>
double placed_traffic(const SchedulerInput& in, const Placement& p,
                      Pred counts) {
  const auto s2n = slot_to_node(in);
  double total = 0;
  for (const auto& t : in.traffic) {
    auto a = p.find(t.src);
    auto b = p.find(t.dst);
    if (a == p.end() || b == p.end()) continue;
    auto na = s2n.find(a->second);
    auto nb = s2n.find(b->second);
    if (na == s2n.end() || nb == s2n.end()) continue;
    if (counts(a->second, na->second, b->second, nb->second)) total += t.rate;
  }
  return total;
}

}  // namespace

ResourceVector resource_add(const ResourceVector& a, const ResourceVector& b) {
  ResourceVector r;
  for (std::size_t d = 0; d < kResourceDims; ++d) r[d] = a[d] + b[d];
  return r;
}

bool resource_fits(const ResourceVector& used, const ResourceVector& demand,
                   const ResourceVector& capacity) {
  for (std::size_t d = 0; d < kResourceDims; ++d) {
    if (used[d] + demand[d] > capacity[d]) return false;
  }
  return true;
}

ResourceVector SchedulerInput::node_capacity(NodeId k) const {
  if (nodes.empty()) return unconstrained_capacity();
  if (k < 0 || static_cast<std::size_t>(k) >= nodes.size()) {
    assert(false && "node_capacity: NodeId out of range");
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "[sched] node_capacity: NodeId %d out of range [0, %zu); "
                   "clamping (further warnings suppressed)\n",
                   k, nodes.size());
    }
    k = std::clamp<NodeId>(k, 0, static_cast<NodeId>(nodes.size()) - 1);
  }
  return nodes[static_cast<std::size_t>(k)].capacity;
}

std::unordered_set<SlotIndex> occupied_slot_set(const SchedulerInput& in) {
  return {in.occupied_slots.begin(), in.occupied_slots.end()};
}

int requested_workers(const SchedulerInput& in, TopologyId topo) {
  for (const auto& t : in.topologies) {
    if (t.id == topo) return t.requested_workers;
  }
  return 1;
}

void audit_capacity(const SchedulerInput& in, ScheduleResult& result) {
  if (in.nodes.empty()) return;
  const auto s2n = slot_to_node(in);
  std::unordered_map<NodeId, ResourceVector> used;
  for (const auto& e : in.executors) {
    auto a = result.assignment.find(e.task);
    if (a == result.assignment.end()) continue;
    auto n = s2n.find(a->second);
    if (n == s2n.end()) continue;
    auto [it, inserted] = used.emplace(n->second, ResourceVector{});
    it->second = resource_add(
        it->second, e.effective_demand(in.queue_pressure_weight));
  }
  for (const auto& [node, total] : used) {
    if (!resource_fits(total, ResourceVector{}, in.node_capacity(node))) {
      result.capacity_relaxed = true;
      return;
    }
  }
}

double internode_traffic(const SchedulerInput& in, const Placement& p) {
  return placed_traffic(in, p, [](SlotIndex, NodeId na, SlotIndex, NodeId nb) {
    return na != nb;
  });
}

double interprocess_traffic(const SchedulerInput& in, const Placement& p) {
  return placed_traffic(
      in, p, [](SlotIndex sa, NodeId na, SlotIndex sb, NodeId nb) {
        return sa != sb && na == nb;
      });
}

int nodes_used(const SchedulerInput& in, const Placement& p) {
  const auto s2n = slot_to_node(in);
  std::unordered_set<NodeId> nodes;
  for (const auto& [task, slot] : p) {
    auto it = s2n.find(slot);
    if (it != s2n.end()) nodes.insert(it->second);
  }
  return static_cast<int>(nodes.size());
}

int slots_used(const Placement& p) {
  std::unordered_set<SlotIndex> slots;
  for (const auto& [task, slot] : p) slots.insert(slot);
  return static_cast<int>(slots.size());
}

bool one_slot_per_topology_per_node(const SchedulerInput& in,
                                    const Placement& p) {
  const auto s2n = slot_to_node(in);
  std::unordered_map<TaskId, TopologyId> topo_of;
  for (const auto& e : in.executors) topo_of.emplace(e.task, e.topology);
  // (topology, node) -> slot used there; any second distinct slot fails.
  std::unordered_map<long long, SlotIndex> used;
  for (const auto& [task, slot] : p) {
    auto ti = topo_of.find(task);
    auto ni = s2n.find(slot);
    if (ti == topo_of.end() || ni == s2n.end()) continue;
    const long long key =
        (static_cast<long long>(ti->second) << 32) | static_cast<unsigned int>(ni->second);
    auto [it, inserted] = used.emplace(key, slot);
    if (!inserted && it->second != slot) return false;
  }
  return true;
}

}  // namespace tstorm::sched
