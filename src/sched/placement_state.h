// The one placement state behind the capacity-aware schedulers
// (traffic-aware, R-Storm, local search). Built once from a
// SchedulerInput, it indexes the input — traffic adjacency, slots per
// node, blocked slots — and tracks a partial placement under Algorithm 1's
// per-node constraints: one slot per topology per node (the topology
// lock), the node's capacity vector, and the count limit. The schedulers
// keep only their policy on top: executor order, per-node cost and
// tie-breaks, relaxation passes.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "sched/types.h"

namespace tstorm::sched {

class PlacementState {
 public:
  struct Task;
  /// A neighbour of an executor, the traffic rate to it, and its state.
  struct Link {
    TaskId peer = -1;
    double rate = 0;
    const Task* task = nullptr;
  };
  /// Per executor: its position in the input's executor list, effective
  /// demand at the input's queue-pressure weight, links (one per
  /// positive-rate traffic entry between two executors, in traffic-list
  /// order), their summed rate, and its slot once placed.
  struct Task {
    TopologyId topology = -1;
    std::size_t index = 0;
    ResourceVector demand{};
    std::vector<Link> links;
    double total_traffic = 0;
    SlotIndex slot = kUnassigned;
    NodeId node = -1;
  };
  /// Per node: effective demand committed (CPU includes queue pressure),
  /// executors placed, and the topology -> slot lock.
  struct Node {
    ResourceVector used{};
    int count = 0;
    std::unordered_map<TopologyId, SlotIndex> lock;
    std::map<SlotIndex, std::size_t> slots;  // slot id -> index in slots_
  };

  /// Keeps a reference to `in`, which must outlive the state.
  explicit PlacementState(const SchedulerInput& in);
  /// Links point into this state's own tasks, so it is never copied.
  PlacementState(const PlacementState&) = delete;
  PlacementState& operator=(const PlacementState&) = delete;

  [[nodiscard]] const SchedulerInput& input() const { return in_; }
  [[nodiscard]] const Task& task(TaskId t) const { return tasks_.at(t); }
  [[nodiscard]] const Node& node(NodeId k) const {
    return nodes_[static_cast<std::size_t>(k)];
  }
  /// Highest node id bearing a slot; -1 when there are no slots.
  [[nodiscard]] NodeId max_node() const {
    return static_cast<NodeId>(nodes_.size()) - 1;
  }
  /// ceil(gamma * Ne / K), at least 1, with K the number of nodes bearing
  /// a slot: a failed node (no slots) does not count.
  [[nodiscard]] int count_limit() const { return count_limit_; }

  /// True when `t` fits node `k`'s remaining capacity and, with
  /// `enforce_count`, one more executor stays within the count limit.
  [[nodiscard]] bool fits(TaskId t, NodeId k, bool enforce_count) const;

  /// Adds the topology edges as unit-rate links when the input carries no
  /// traffic yet, so a neighbour relation exists before measurement.
  void link_topology_edges_if_no_traffic();

  /// Traffic between `t` and the other executors placed on `node`.
  [[nodiscard]] double traffic_to(TaskId t, NodeId node) const;
  /// traffic_to(t, k) for every node k at once, into `per_node`; returns
  /// the traffic to all placed peers. Sums in link order, so each entry
  /// equals traffic_to() exactly.
  double traffic_by_node(TaskId t, std::vector<double>& per_node) const;

  /// The slot `topo` would use on node `k`: its locked slot, else the
  /// lowest free slot index there; kUnassigned when there is none.
  [[nodiscard]] SlotIndex eligible_slot(TopologyId topo, NodeId k) const;

  /// Puts unplaced `t` into `slot`, locking the slot to its topology.
  void place(TaskId t, SlotIndex slot);
  /// Takes placed `t` out; a slot left empty is free again.
  void remove(TaskId t);

 private:
  /// A slot hosts one worker, a worker belongs to one topology: a slot
  /// with executors is locked to theirs on its node.
  struct Slot {
    SlotIndex id = -1;
    NodeId node = -1;
    bool blocked = false;  // occupied by a topology outside this run
    int executors = 0;
  };

  void link(TaskId a, TaskId b, double rate);

  const SchedulerInput& in_;
  std::unordered_map<TaskId, Task> tasks_;
  std::vector<Slot> slots_;
  std::unordered_map<SlotIndex, std::size_t> slot_pos_;
  std::vector<Node> nodes_;
  int count_limit_ = 1;
};

}  // namespace tstorm::sched
