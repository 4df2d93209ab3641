#include "runtime/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "test_util.h"
#include "workload/topologies.h"

namespace tstorm::runtime {
namespace {

using testutil::RecordingBolt;
using testutil::SeqSpout;

topo::Topology small_topology(int workers = 4, int ackers = 2) {
  topo::TopologyBuilder b;
  auto counter = std::make_shared<std::int64_t>(0);
  b.set_spout("s",
              [counter] { return std::make_unique<SeqSpout>(counter, 100); },
              2)
      .output_fields({"v"})
      .emit_interval(0.001);
  auto log = std::make_shared<RecordingBolt::Log>();
  b.set_bolt("b", [log] { return std::make_unique<RecordingBolt>(log); }, 3)
      .shuffle_grouping("s");
  return b.build("small", workers, ackers);
}

TEST(Cluster, SlotIndexRoundTrip) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.num_nodes = 10;
  cfg.slots_per_node = 4;
  Cluster c(sim, cfg);
  for (int n = 0; n < 10; ++n) {
    for (int p = 0; p < 4; ++p) {
      const auto s = c.slot_index(n, p);
      EXPECT_EQ(c.slot_node(s), n);
      EXPECT_EQ(c.slot_port(s), p);
    }
  }
  EXPECT_EQ(c.all_slots().size(), 40u);
}

TEST(Cluster, SubmitCreatesTasksInDeclarationOrder) {
  sim::Simulation sim;
  Cluster c(sim, {});
  const auto id = c.submit(small_topology());
  // 2 spouts + 3 bolts + 2 ackers.
  const auto tasks = c.tasks_of(id);
  EXPECT_EQ(tasks.size(), 7u);
  EXPECT_EQ(c.tasks_of_component(id, "s").size(), 2u);
  EXPECT_EQ(c.tasks_of_component(id, "b").size(), 3u);
  EXPECT_EQ(c.acker_tasks(id).size(), 2u);
  EXPECT_TRUE(c.task_info(tasks[0]).is_spout());
  EXPECT_EQ(c.task_info(tasks[0]).index, 0);
  EXPECT_EQ(c.task_info(tasks[1]).index, 1);
  EXPECT_TRUE(c.task_info(tasks[6]).is_acker());
}

TEST(Cluster, SecondTopologyGetsDistinctTaskIds) {
  sim::Simulation sim;
  Cluster c(sim, {});
  const auto a = c.submit(small_topology());
  const auto b = c.submit(small_topology());
  const auto ta = c.tasks_of(a);
  const auto tb = c.tasks_of(b);
  std::set<sched::TaskId> all(ta.begin(), ta.end());
  all.insert(tb.begin(), tb.end());
  EXPECT_EQ(all.size(), ta.size() + tb.size());
}

TEST(Cluster, TaskRangesMatchBruteForceScan) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.num_nodes = 20;
  Cluster c(sim, cfg);
  const auto check = [&c] {
    for (const sched::TopologyId id : c.topology_ids()) {
      std::vector<sched::TaskId> all;
      for (const auto& t : c.tasks()) {
        if (t.topology == id) all.push_back(t.task);
      }
      EXPECT_EQ(c.tasks_of(id), all) << "topology " << id;
      for (const auto& component : c.topology(id).components()) {
        std::vector<sched::TaskId> want;
        for (const auto& t : c.tasks()) {
          if (t.topology == id && t.component->name == component.name) {
            want.push_back(t.task);
          }
        }
        EXPECT_EQ(c.tasks_of_component(id, component.name), want)
            << "topology " << id << " component " << component.name;
      }
      EXPECT_TRUE(c.tasks_of_component(id, "no-such-component").empty());
    }
    const auto unknown = static_cast<sched::TopologyId>(
        c.topology_ids().size());
    EXPECT_TRUE(c.tasks_of(unknown).empty());
    EXPECT_TRUE(c.tasks_of(-1).empty());
    EXPECT_TRUE(c.tasks_of_component(unknown, "s").empty());
  };
  workload::WordCountOptions wc;
  wc.workers = 4;
  c.submit(workload::make_word_count(wc).topology);
  workload::ThroughputTestOptions tt;
  tt.workers = 4;
  c.submit(workload::make_throughput_test(tt));
  const auto killed = c.submit(small_topology());
  workload::LogStreamOptions ls;
  ls.workers = 4;
  c.submit(workload::make_log_stream(ls).topology);
  c.submit(workload::make_chain({}));
  check();
  c.kill_topology(killed);
  c.submit(small_topology(2, 0));
  c.submit(workload::make_word_count(wc).topology);
  check();
  sim.run_until(5.0);
  check();
}

TEST(Cluster, SubmissionPublishesAssignment) {
  sim::Simulation sim;
  Cluster c(sim, {});
  const auto id = c.submit(small_topology());
  const auto* record = c.coordination().get(id);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->placement.size(), 7u);
  EXPECT_GT(record->version, 0);
}

TEST(Cluster, WorkersStartAfterSupervisorSyncAndSpawnDelay) {
  sim::Simulation sim;
  Cluster c(sim, {});
  c.submit(small_topology());
  EXPECT_EQ(c.nodes_in_use(), 0);
  // Supervisors sync within 10 s, workers spawn within 2 s more.
  sim.run_until(13.0);
  EXPECT_GT(c.nodes_in_use(), 0);
}

TEST(Cluster, SchedulerInputContainsEverything) {
  sim::Simulation sim;
  Cluster c(sim, {});
  const auto id = c.submit(small_topology(4, 2));
  const auto in = c.scheduler_input({id});
  EXPECT_EQ(in.executors.size(), 7u);
  EXPECT_EQ(in.slots.size(), 40u);
  ASSERT_EQ(in.topologies.size(), 1u);
  EXPECT_EQ(in.topologies[0].requested_workers, 4);
  EXPECT_EQ(in.nodes.size(), 10u);
  EXPECT_DOUBLE_EQ(in.node_capacity_mhz(0), 8000.0);
  // Default homogeneous memory / NIC capacities ride along.
  EXPECT_DOUBLE_EQ(in.nodes[0].capacity[sched::kMemoryMib], 16384.0);
  EXPECT_DOUBLE_EQ(in.nodes[0].capacity[sched::kNetworkMbps], 1000.0);
  // Task edges: 2 spouts x 3 bolts.
  EXPECT_EQ(in.topology_edges.size(), 6u);
  EXPECT_TRUE(in.occupied_slots.empty());
}

TEST(Cluster, SchedulerInputMarksOtherTopologiesSlotsOccupied) {
  sim::Simulation sim;
  Cluster c(sim, {});
  const auto a = c.submit(small_topology());
  const auto b = c.submit(small_topology());
  const auto in = c.scheduler_input({b});
  const auto* rec_a = c.coordination().get(a);
  std::set<sched::SlotIndex> a_slots;
  for (const auto& [t, s] : rec_a->placement) a_slots.insert(s);
  EXPECT_EQ(in.occupied_slots.size(), a_slots.size());
}

TEST(Cluster, KillTopologyStopsWorkers) {
  sim::Simulation sim;
  Cluster c(sim, {});
  const auto id = c.submit(small_topology());
  sim.run_until(15.0);
  EXPECT_GT(c.nodes_in_use(), 0);
  c.kill_topology(id);
  sim.run_until(30.0);  // next sync retires the workers
  EXPECT_EQ(c.nodes_in_use(), 0);
}

TEST(Cluster, NodeCapacityFromConfig) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.cores_per_node = 4;
  cfg.per_core_mhz = 2000.0;
  Cluster c(sim, cfg);
  EXPECT_DOUBLE_EQ(c.node(0).capacity_mhz(), 8000.0);
  EXPECT_DOUBLE_EQ(cfg.node_capacity_mhz(), 8000.0);
}

TEST(Cluster, ResolvePrefersDispatcherRule) {
  // Covered end-to-end in reassignment tests; here: unknown task.
  sim::Simulation sim;
  Cluster c(sim, {});
  EXPECT_EQ(c.resolve(123, 1), nullptr);
}

TEST(WorkerNode, ProcessorSharingFactor) {
  WorkerNode n(0, 4, 2000.0);
  for (int i = 0; i < 4; ++i) n.service_started();
  EXPECT_DOUBLE_EQ(n.processor_sharing_factor(), 1.0);
  for (int i = 0; i < 4; ++i) n.service_started();
  EXPECT_DOUBLE_EQ(n.processor_sharing_factor(), 2.0);
}

TEST(WorkerNode, CrowdingCountsWorkersAndBusyThreads) {
  WorkerNode n(0, 4, 2000.0);
  EXPECT_DOUBLE_EQ(n.crowding(2.5), 0.0);
  n.worker_started();
  n.worker_started();
  EXPECT_DOUBLE_EQ(n.crowding(2.5), 1.0);  // 5 - 4
  n.service_started();
  EXPECT_DOUBLE_EQ(n.crowding(2.5), 2.0);
  n.worker_finished();
  n.service_finished();
  EXPECT_DOUBLE_EQ(n.crowding(2.5), 0.0);
}

TEST(Nimbus, VersionsAreMonotone) {
  sim::Simulation sim;
  Cluster c(sim, {});
  const auto v1 = c.nimbus().next_version();
  const auto v2 = c.nimbus().next_version();
  EXPECT_GT(v2, v1);
  sim.run_until(5.0);
  const auto v3 = c.nimbus().next_version();
  EXPECT_GT(v3, v2);
  EXPECT_EQ(v3, 5000);  // milliseconds of simulated time
}

TEST(Nimbus, ApplyPlacementValidations) {
  sim::Simulation sim;
  Cluster c(sim, {});
  const auto id = c.submit(small_topology());
  const auto tasks = c.tasks_of(id);
  const auto current = c.coordination().get(id)->version;

  sched::Placement p;
  for (auto t : tasks) p[t] = 0;
  // Stale version rejected.
  EXPECT_FALSE(c.nimbus().apply_placement(id, p, current));
  // Missing task rejected.
  sched::Placement partial = p;
  partial.erase(tasks[0]);
  EXPECT_FALSE(
      c.nimbus().apply_placement(id, partial, c.nimbus().next_version()));
  // Out-of-range slot rejected.
  sched::Placement bad = p;
  bad[tasks[0]] = 9999;
  EXPECT_FALSE(c.nimbus().apply_placement(id, bad, c.nimbus().next_version()));
  // Valid placement accepted.
  EXPECT_TRUE(c.nimbus().apply_placement(id, p, c.nimbus().next_version()));
  EXPECT_EQ(c.coordination().get(id)->placement.at(tasks[0]), 0);
}

TEST(Nimbus, ApplyPlacementRejectsCrossTopologySlotCollision) {
  sim::Simulation sim;
  Cluster c(sim, {});
  const auto a = c.submit(small_topology());
  const auto b = c.submit(small_topology());
  const auto* rec_a = c.coordination().get(a);
  const auto slot_of_a = rec_a->placement.begin()->second;
  sched::Placement p;
  for (auto t : c.tasks_of(b)) p[t] = slot_of_a;
  EXPECT_FALSE(c.nimbus().apply_placement(b, p, c.nimbus().next_version()));
}

TEST(Nimbus, BulkApplyAtomicity) {
  sim::Simulation sim;
  Cluster c(sim, {});
  const auto a = c.submit(small_topology());
  const auto b = c.submit(small_topology());
  std::map<sched::TopologyId, sched::Placement> good;
  for (auto t : c.tasks_of(a)) good[a][t] = 0;
  for (auto t : c.tasks_of(b)) good[b][t] = 1;
  EXPECT_TRUE(c.nimbus().apply_placements(good, c.nimbus().next_version()));

  // Colliding placements rejected wholesale; nothing changes.
  const auto va = c.coordination().get(a)->version;
  std::map<sched::TopologyId, sched::Placement> bad;
  for (auto t : c.tasks_of(a)) bad[a][t] = 2;
  for (auto t : c.tasks_of(b)) bad[b][t] = 2;  // same slot
  EXPECT_FALSE(c.nimbus().apply_placements(bad, c.nimbus().next_version()));
  EXPECT_EQ(c.coordination().get(a)->version, va);
}

}  // namespace
}  // namespace tstorm::runtime
