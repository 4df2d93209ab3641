#include "sched/placement_state.h"

#include <algorithm>
#include <cmath>

namespace tstorm::sched {

PlacementState::PlacementState(const SchedulerInput& in) : in_(in) {
  tasks_.reserve(in.executors.size());
  for (std::size_t i = 0; i < in.executors.size(); ++i) {
    const ExecutorSpec& e = in.executors[i];
    const ResourceVector demand = e.effective_demand(in.queue_pressure_weight);
    tasks_.try_emplace(e.task, Task{e.topology, i, demand, {}});
  }
  for (const auto& t : in.traffic) {
    if (t.rate > 0) link(t.src, t.dst, t.rate);
  }

  NodeId max_node = -1;
  for (const auto& s : in.slots) max_node = std::max(max_node, s.node);
  nodes_.resize(static_cast<std::size_t>(max_node + 1));
  const auto occupied = occupied_slot_set(in);
  for (const auto& s : in.slots) {
    slot_pos_.emplace(s.slot, slots_.size());
    nodes_[static_cast<std::size_t>(s.node)].slots.emplace(s.slot,
                                                            slots_.size());
    slots_.push_back({s.slot, s.node, occupied.contains(s.slot)});
  }

  const auto live = std::count_if(nodes_.begin(), nodes_.end(), [](auto& n) {
    return !n.slots.empty();
  });
  if (live > 0) {
    const double ne = static_cast<double>(in.executors.size());
    const double kk = static_cast<double>(live);
    count_limit_ = std::max(
        1, static_cast<int>(std::ceil(in.gamma * ne / kk - 1e-9)));
  }
}

void PlacementState::link(TaskId a, TaskId b, double rate) {
  auto ta = tasks_.find(a);
  auto tb = tasks_.find(b);
  if (ta == tasks_.end() || tb == tasks_.end()) return;
  ta->second.links.push_back({b, rate, &tb->second});
  ta->second.total_traffic += rate;
  tb->second.links.push_back({a, rate, &ta->second});
  tb->second.total_traffic += rate;
}

bool PlacementState::fits(TaskId t, NodeId k, bool enforce_count) const {
  if (enforce_count && node(k).count + 1 > count_limit_) return false;
  return resource_fits(node(k).used, task(t).demand, in_.node_capacity(k));
}

void PlacementState::link_topology_edges_if_no_traffic() {
  for (const auto& [t, task] : tasks_) {
    if (!task.links.empty()) return;
  }
  for (const auto& [a, b] : in_.topology_edges) link(a, b, 1.0);
}

double PlacementState::traffic_to(TaskId t, NodeId node) const {
  double total = 0;
  for (const auto& [peer, rate, peer_task] : task(t).links) {
    if (peer != t && peer_task->node == node) total += rate;
  }
  return total;
}

double PlacementState::traffic_by_node(TaskId t,
                                       std::vector<double>& per_node) const {
  per_node.assign(nodes_.size(), 0.0);
  double total = 0;
  for (const auto& [peer, rate, peer_task] : task(t).links) {
    const NodeId node = peer_task->node;
    if (peer == t || node < 0) continue;
    per_node[static_cast<std::size_t>(node)] += rate;
    total += rate;
  }
  return total;
}

SlotIndex PlacementState::eligible_slot(TopologyId topo, NodeId k) const {
  const Node& n = node(k);
  auto it = n.lock.find(topo);
  if (it != n.lock.end()) return it->second;
  for (const auto& [id, i] : n.slots) {
    if (!slots_[i].blocked && slots_[i].executors == 0) return id;
  }
  return kUnassigned;
}

void PlacementState::place(TaskId t, SlotIndex slot) {
  Task& task = tasks_.at(t);
  Slot& s = slots_[slot_pos_.at(slot)];
  Node& n = nodes_[static_cast<std::size_t>(s.node)];
  task.slot = slot;
  task.node = s.node;
  s.executors += 1;
  n.lock[task.topology] = slot;
  n.used = resource_add(n.used, task.demand);
  n.count += 1;
}

void PlacementState::remove(TaskId t) {
  Task& task = tasks_.at(t);
  Slot& s = slots_[slot_pos_.at(task.slot)];
  Node& n = nodes_[static_cast<std::size_t>(s.node)];
  task.slot = kUnassigned;
  task.node = -1;
  for (std::size_t d = 0; d < kResourceDims; ++d) n.used[d] -= task.demand[d];
  n.count -= 1;
  if (--s.executors == 0) n.lock.erase(task.topology);
}

}  // namespace tstorm::sched
