// LocalSearchScheduler: must never be worse than Algorithm 1, must keep
// all constraints, and must fix the greedy's known chain-partitioning
// suboptimality.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sched/local_search.h"
#include "sched/traffic_aware.h"
#include "sim/rng.h"

namespace tstorm::sched {
namespace {

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

TEST(LocalSearch, FixesChainPartitioning) {
  // A weighted chain 0-1-2-3-4-5 on two nodes of 3: the optimum cuts only
  // the heaviest edge 2-3 (100). The greedy grows from executor 2 through
  // 3, then takes 1 before 4 (equal keys, lower task id), filling node 0
  // with {1, 2, 3} and cutting 0-1 and 3-4 (110). Swapping 0 and 3
  // reaches the optimum.
  auto in = make_input(2, 4, 1e9);
  add_executors(in, 0, 6);
  in.gamma = 1.0;
  for (auto [s, d, rate] : {std::tuple{0, 1, 50.0}, {1, 2, 60.0},
                            {2, 3, 100.0}, {3, 4, 60.0}, {4, 5, 50.0}}) {
    in.traffic.push_back({s, d, rate});
  }
  TrafficAwareScheduler greedy;
  LocalSearchScheduler search;
  const double greedy_traffic =
      internode_traffic(in, greedy.schedule(in).assignment);
  const auto refined = search.schedule(in);
  const double refined_traffic =
      internode_traffic(in, refined.assignment);
  EXPECT_DOUBLE_EQ(greedy_traffic, 110.0);  // the greedy pays
  EXPECT_DOUBLE_EQ(refined_traffic, 100.0);  // local search reaches optimum
  EXPECT_TRUE(one_slot_per_topology_per_node(in, refined.assignment));
}

TEST(LocalSearch, NeverWorseThanGreedyOnRandomInputs) {
  TrafficAwareScheduler greedy;
  LocalSearchScheduler search;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto in = make_input(6, 4, 8000.0 * 0.85);
    add_executors(in, 0, 20, 25.0);
    add_executors(in, 1, 13, 25.0);
    sim::Rng rng(seed);
    for (int i = 0; i < 120; ++i) {
      const auto a = static_cast<TaskId>(rng.uniform_int(0, 32));
      const auto b = static_cast<TaskId>(rng.uniform_int(0, 32));
      if (a != b) in.traffic.push_back({a, b, rng.uniform(0.1, 300.0)});
    }
    in.gamma = 1.0 + static_cast<double>(seed % 4);
    const double g = internode_traffic(in, greedy.schedule(in).assignment);
    const auto r = search.schedule(in);
    const double ls = internode_traffic(in, r.assignment);
    EXPECT_LE(ls, g + 1e-9) << "seed " << seed;
    EXPECT_EQ(r.assignment.size(), 33u);
    EXPECT_TRUE(one_slot_per_topology_per_node(in, r.assignment));
  }
}

TEST(LocalSearch, RespectsCountAndCapacityConstraints) {
  auto in = make_input(4, 4, 100.0);
  add_executors(in, 0, 8, 40.0);  // 2 per node by capacity
  in.gamma = 8.0;
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) in.traffic.push_back({i, j, 10.0});
  }
  LocalSearchScheduler search;
  const auto r = search.schedule(in);
  std::unordered_map<NodeId, double> load;
  for (const auto& [task, slot] : r.assignment) {
    load[slot / 4] += 40.0;
  }
  for (const auto& [n, l] : load) EXPECT_LE(l, 100.0 + 1e-9);
}

TEST(LocalSearch, CountLimitCountsOnlyLiveNodes) {
  // Five nodes, node 2 failed (zero capacity, no slots), 8 executors and
  // gamma 1.25: K is the four live nodes, so the limit is
  // ceil(1.25 * 8 / 4) = 3 executors per node. Every executor talks to
  // executor 0, so each move onto its node gains traffic: local search
  // pulls a third executor next to the hub, and without a relaxation flag
  // no node takes a fourth.
  auto in = make_input(5, 2, 1e6);
  in.nodes[2].capacity = {};
  std::erase_if(in.slots, [](const SlotSpec& s) { return s.node == 2; });
  add_executors(in, 0, 8);
  in.gamma = 1.25;
  for (TaskId t = 1; t < 8; ++t) in.traffic.push_back({0, t, 10.0});

  const auto r = LocalSearchScheduler().schedule(in);
  ASSERT_EQ(r.assignment.size(), 8u);
  EXPECT_FALSE(r.count_relaxed);
  std::unordered_map<NodeId, int> per_node;
  for (const auto& [task, slot] : r.assignment) ++per_node[slot / 2];
  EXPECT_EQ(per_node[r.assignment.at(0) / 2], 3);
  for (const auto& [node, count] : per_node) {
    EXPECT_LE(count, 3) << "node " << node;
  }
}

TEST(LocalSearch, RegisteredInRegistry) {
  auto alg = AlgorithmRegistry::instance().create("local-search");
  ASSERT_NE(alg, nullptr);
  EXPECT_EQ(alg->name(), "local-search");
}

TEST(LocalSearch, EmptyInput) {
  LocalSearchScheduler search;
  SchedulerInput in;
  EXPECT_TRUE(search.schedule(in).assignment.empty());
}

TEST(LocalSearch, DeterministicAcrossRuns) {
  auto make = [] {
    auto in = make_input(5, 4, 1e6);
    add_executors(in, 0, 18, 5.0);
    sim::Rng rng(31);
    for (int i = 0; i < 60; ++i) {
      in.traffic.push_back({static_cast<TaskId>(rng.uniform_int(0, 17)),
                            static_cast<TaskId>(rng.uniform_int(0, 17)),
                            rng.uniform(0, 100)});
    }
    in.gamma = 2.0;
    return in;
  };
  LocalSearchScheduler search;
  EXPECT_EQ(search.schedule(make()).assignment,
            search.schedule(make()).assignment);
}

}  // namespace
}  // namespace tstorm::sched
