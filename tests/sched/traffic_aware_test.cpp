#include "sched/traffic_aware.h"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.h"

namespace tstorm::sched {
namespace {

/// 4 slots per node, like the reference cluster.
SchedulerInput make_input(int nodes, int slots_per_node, double capacity) {
  SchedulerInput in;
  for (int n = 0; n < nodes; ++n) {
    for (int p = 0; p < slots_per_node; ++p) {
      in.slots.push_back({n * slots_per_node + p, n, p});
    }
    in.nodes.push_back({n, {capacity}});
  }
  return in;
}

void add_executors(SchedulerInput& in, TopologyId topo, int count,
                   double load = 10.0) {
  const int base = static_cast<int>(in.executors.size());
  for (int i = 0; i < count; ++i) {
    in.executors.push_back({base + i, topo, {load}});
  }
  in.topologies.push_back({topo, count});
}

NodeId node_of(const SchedulerInput& in, const Placement& p, TaskId t) {
  for (const auto& s : in.slots) {
    if (s.slot == p.at(t)) return s.node;
  }
  return -1;
}

TEST(TrafficAware, EmptyInputYieldsEmptyResult) {
  TrafficAwareScheduler alg;
  SchedulerInput in;
  const auto r = alg.schedule(in);
  EXPECT_TRUE(r.assignment.empty());
}

TEST(TrafficAware, PlacesEveryExecutor) {
  auto in = make_input(4, 4, 1e9);
  add_executors(in, 0, 13);
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);
  EXPECT_EQ(r.assignment.size(), 13u);
}

TEST(TrafficAware, ChattyPairColocated) {
  auto in = make_input(4, 4, 1e9);
  add_executors(in, 0, 8);
  in.traffic.push_back({0, 1, 1000.0});  // hot edge
  in.traffic.push_back({2, 3, 1.0});
  in.gamma = 4.0;  // allow packing
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);
  EXPECT_EQ(node_of(in, r.assignment, 0), node_of(in, r.assignment, 1));
  // One slot per topology per node => same node means same slot.
  EXPECT_EQ(r.assignment.at(0), r.assignment.at(1));
}

TEST(TrafficAware, ChainPartitioningIsGreedy) {
  // Two independent chains a0-a1-a2 and b0-b1-b2 with room for 3 per node.
  // The optimum is zero inter-node traffic; the paper's greedy (like ours)
  // seeds both chain heads onto the same node before their neighbours are
  // placed, so it pays for some edges — but never more than it keeps.
  auto in = make_input(2, 4, 1e9);
  add_executors(in, 0, 6);
  in.gamma = 1.0;  // ceil(6/2)=3 per node
  double total = 0;
  for (auto [s, d] : {std::pair{0, 1}, {1, 2}, {3, 4}, {4, 5}}) {
    in.traffic.push_back({s, d, 100.0});
    total += 100.0;
  }
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);
  EXPECT_EQ(r.assignment.size(), 6u);
  EXPECT_EQ(nodes_used(in, r.assignment), 2);
  EXPECT_LT(internode_traffic(in, r.assignment), total);
  EXPECT_TRUE(one_slot_per_topology_per_node(in, r.assignment));
}

TEST(TrafficAware, OneSlotPerTopologyPerNodeInvariant) {
  auto in = make_input(3, 4, 1e9);
  add_executors(in, 0, 9);
  add_executors(in, 1, 7);
  sim::Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const auto a = rng.uniform_int(0, 15);
    const auto b = rng.uniform_int(0, 15);
    if (a != b) in.traffic.push_back({static_cast<TaskId>(a),
                                      static_cast<TaskId>(b),
                                      rng.uniform(1, 100)});
  }
  in.gamma = 3.0;
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);
  EXPECT_EQ(r.assignment.size(), 16u);
  EXPECT_TRUE(one_slot_per_topology_per_node(in, r.assignment));
}

TEST(TrafficAware, TopologiesNeverShareASlot) {
  auto in = make_input(2, 2, 1e9);
  add_executors(in, 0, 4);
  add_executors(in, 1, 4);
  in.gamma = 8.0;
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);
  std::unordered_map<SlotIndex, TopologyId> owner;
  for (const auto& e : in.executors) {
    auto it = r.assignment.find(e.task);
    ASSERT_NE(it, r.assignment.end());
    auto [oit, inserted] = owner.emplace(it->second, e.topology);
    if (!inserted) {
      EXPECT_EQ(oit->second, e.topology);
    }
  }
}

TEST(TrafficAware, RespectsCapacityConstraint) {
  auto in = make_input(4, 4, 100.0);  // each node fits 2 executors of 40
  add_executors(in, 0, 8, 40.0);
  in.gamma = 8.0;  // count constraint loose; capacity must bind
  // All-to-all traffic pulls toward one node.
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) in.traffic.push_back({i, j, 10.0});
  }
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);
  EXPECT_FALSE(r.capacity_relaxed);
  std::unordered_map<NodeId, double> load;
  for (const auto& e : in.executors) {
    load[node_of(in, r.assignment, e.task)] += e.load_mhz();
  }
  for (const auto& [n, l] : load) EXPECT_LE(l, 100.0 + 1e-9);
  EXPECT_EQ(nodes_used(in, r.assignment), 4);
}

TEST(TrafficAware, GammaOneSpreadsAlmostEvenly) {
  auto in = make_input(10, 4, 1e9);
  add_executors(in, 0, 40);
  in.gamma = 1.0;  // ceil(40/10) = 4 per node
  for (int i = 0; i < 39; ++i) in.traffic.push_back({i, i + 1, 50.0});
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);
  std::unordered_map<NodeId, int> counts;
  for (const auto& e : in.executors) {
    counts[node_of(in, r.assignment, e.task)]++;
  }
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [n, c] : counts) EXPECT_LE(c, 4);
}

TEST(TrafficAware, LargerGammaUsesFewerNodes) {
  TrafficAwareScheduler alg;
  int prev_nodes = 1000;
  for (double gamma : {1.0, 2.0, 4.0, 10.0}) {
    auto in = make_input(10, 4, 1e9);
    add_executors(in, 0, 40);
    in.gamma = gamma;
    for (int i = 0; i < 39; ++i) in.traffic.push_back({i, i + 1, 50.0});
    const auto r = alg.schedule(in);
    const int n = nodes_used(in, r.assignment);
    EXPECT_LE(n, prev_nodes);
    prev_nodes = n;
  }
  EXPECT_EQ(prev_nodes, 1);  // gamma=10 packs everything onto one node
}

TEST(TrafficAware, CountRelaxationWhenGammaInfeasible) {
  // 1 node, gamma limit would allow ceil(1*4/1)=4, fine; but force
  // infeasibility via a second topology locking slots.
  auto in = make_input(1, 2, 1e9);
  add_executors(in, 0, 6);
  in.gamma = 0.5;  // limit = ceil(0.5*6/1) = 3 < 6 executors
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);
  EXPECT_EQ(r.assignment.size(), 6u);  // still placed
  EXPECT_TRUE(r.count_relaxed);
}

TEST(TrafficAware, CapacityRelaxationPlacesEveryone) {
  auto in = make_input(2, 2, 50.0);
  add_executors(in, 0, 4, 40.0);  // 160 demand, 100 capacity
  in.gamma = 10.0;
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);
  EXPECT_EQ(r.assignment.size(), 4u);
  EXPECT_TRUE(r.capacity_relaxed);
  EXPECT_TRUE(one_slot_per_topology_per_node(in, r.assignment));
}

TEST(TrafficAware, OccupiedSlotsAvoided) {
  auto in = make_input(2, 1, 1e9);
  add_executors(in, 0, 3);
  in.occupied_slots = {0};  // node 0's only slot taken
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);
  for (const auto& [task, slot] : r.assignment) EXPECT_EQ(slot, 1);
}

TEST(TrafficAware, DeterministicAcrossRuns) {
  auto make = [] {
    auto in = make_input(5, 4, 1e6);
    add_executors(in, 0, 20, 5.0);
    sim::Rng rng(77);
    for (int i = 0; i < 60; ++i) {
      in.traffic.push_back({static_cast<TaskId>(rng.uniform_int(0, 19)),
                            static_cast<TaskId>(rng.uniform_int(0, 19)),
                            rng.uniform(0, 100)});
    }
    in.gamma = 2.0;
    return in;
  };
  TrafficAwareScheduler alg;
  const auto r1 = alg.schedule(make());
  const auto r2 = alg.schedule(make());
  EXPECT_EQ(r1.assignment, r2.assignment);
}

TEST(TrafficAware, HeaviestTrafficExecutorsPlacedFirst) {
  // The heavy pair should get the best (co-located) placement even when
  // listed last.
  auto in = make_input(2, 1, 1e9);
  add_executors(in, 0, 4);
  in.gamma = 1.0;  // 2 per node
  in.traffic.push_back({0, 1, 1.0});
  in.traffic.push_back({2, 3, 1000.0});
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);
  EXPECT_EQ(node_of(in, r.assignment, 2), node_of(in, r.assignment, 3));
}

// Property sweep: across sizes and gammas the three invariants always hold.
struct SweepParam {
  int nodes;
  int executors;
  double gamma;
  std::uint64_t seed;
};

class TrafficAwareSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TrafficAwareSweep, InvariantsHold) {
  const auto p = GetParam();
  auto in = make_input(p.nodes, 4, 8000.0 * 0.85);
  add_executors(in, 0, p.executors / 2 + p.executors % 2, 30.0);
  add_executors(in, 1, p.executors / 2, 30.0);
  sim::Rng rng(p.seed);
  for (int i = 0; i < p.executors * 3; ++i) {
    const auto a = static_cast<TaskId>(
        rng.uniform_int(0, p.executors - 1));
    const auto b = static_cast<TaskId>(
        rng.uniform_int(0, p.executors - 1));
    if (a != b) in.traffic.push_back({a, b, rng.uniform(0.1, 500)});
  }
  in.gamma = p.gamma;
  TrafficAwareScheduler alg;
  const auto r = alg.schedule(in);

  // 1. Everyone placed.
  EXPECT_EQ(r.assignment.size(), static_cast<std::size_t>(p.executors));
  // 2. Structural invariant.
  EXPECT_TRUE(one_slot_per_topology_per_node(in, r.assignment));
  // 3. Count constraint (when not relaxed).
  if (!r.count_relaxed) {
    const int limit = static_cast<int>(
        std::ceil(p.gamma * p.executors / p.nodes - 1e-9));
    std::unordered_map<NodeId, int> counts;
    for (const auto& e : in.executors) {
      counts[node_of(in, r.assignment, e.task)]++;
    }
    for (const auto& [n, c] : counts) EXPECT_LE(c, std::max(1, limit));
  }
  // 4. Capacity constraint (when not relaxed).
  if (!r.capacity_relaxed) {
    std::unordered_map<NodeId, double> load;
    for (const auto& e : in.executors) {
      load[node_of(in, r.assignment, e.task)] += e.load_mhz();
    }
    for (const auto& [n, l] : load) EXPECT_LE(l, 8000.0 * 0.85 + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TrafficAwareSweep,
    ::testing::Values(SweepParam{2, 4, 1.0, 1}, SweepParam{2, 8, 2.0, 2},
                      SweepParam{5, 20, 1.0, 3}, SweepParam{5, 20, 1.7, 4},
                      SweepParam{10, 45, 1.0, 5}, SweepParam{10, 45, 1.7, 6},
                      SweepParam{10, 45, 6.0, 7}, SweepParam{10, 27, 2.2, 8},
                      SweepParam{10, 34, 2.0, 9}, SweepParam{3, 30, 1.2, 10},
                      SweepParam{8, 64, 3.0, 11},
                      SweepParam{16, 100, 1.5, 12}));

}  // namespace
}  // namespace tstorm::sched
