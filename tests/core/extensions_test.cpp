// Tests for the extension features: pluggable estimators (the paper's
// stated future work), the energy/operational-cost meter (the paper's
// consolidation motivation), whole-node failure handling, and the latency
// histogram.
#include <gtest/gtest.h>

#include "core/energy_meter.h"
#include "core/estimator.h"
#include "core/system.h"
#include "metrics/histogram.h"
#include "sched/manual.h"
#include "topo/builder.h"
#include "workload/topologies.h"

namespace tstorm::core {
namespace {

// -------------------------------------------------------------- Estimators

TEST(Estimators, EwmaMatchesPaperFormula) {
  EwmaEstimator e(0.5);
  e.update(10.0);
  e.update(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
}

TEST(Estimators, SlidingWindowMean) {
  SlidingWindowEstimator e(3);
  EXPECT_DOUBLE_EQ(e.value(), 0.0);
  e.update(3.0);
  e.update(6.0);
  EXPECT_DOUBLE_EQ(e.value(), 4.5);
  e.update(9.0);
  EXPECT_DOUBLE_EQ(e.value(), 6.0);
  e.update(12.0);  // 3 falls out of the window
  EXPECT_DOUBLE_EQ(e.value(), 9.0);
}

TEST(Estimators, SlidingWindowHardForgetting) {
  SlidingWindowEstimator e(2);
  e.update(1000.0);
  e.update(1.0);
  e.update(1.0);
  EXPECT_DOUBLE_EQ(e.value(), 1.0);  // the old regime is gone completely
}

TEST(Estimators, HoltPredictsRampingLoad) {
  HoltTrendEstimator holt(0.5, 0.5);
  EwmaEstimator ewma(0.5);
  // A steadily climbing load: Holt's forecast should lead EWMA's lag.
  double last_holt = 0, last_ewma = 0;
  for (double x = 100; x <= 1000; x += 100) {
    last_holt = holt.update(x);
    last_ewma = ewma.update(x);
  }
  EXPECT_GT(last_holt, last_ewma);
  EXPECT_GT(last_holt, 900.0);  // at or above the latest sample
}

TEST(Estimators, HoltNeverNegative) {
  HoltTrendEstimator holt(0.5, 0.5);
  holt.update(100.0);
  holt.update(0.0);
  holt.update(0.0);
  EXPECT_GE(holt.value(), 0.0);
}

TEST(Estimators, FactorySelectionFromConfig) {
  CoreConfig cfg;
  for (const char* name : {"ewma", "sliding-window", "holt"}) {
    cfg.estimator = name;
    auto factory = make_estimator_factory(cfg);
    auto est = factory();
    ASSERT_NE(est, nullptr);
    est->update(5.0);
    EXPECT_DOUBLE_EQ(est->value(), 5.0);  // all seed on the first sample
  }
  cfg.estimator = "neural";  // not (yet) a thing
  EXPECT_THROW(make_estimator_factory(cfg), std::invalid_argument);
}

TEST(Estimators, MetricsDbWithCustomEstimator) {
  MetricsDb db(make_sliding_window_factory(2));
  db.update_executor_load(1, 100.0);
  db.update_executor_load(1, 50.0);
  db.update_executor_load(1, 30.0);
  EXPECT_DOUBLE_EQ(db.executor_load(1), 40.0);  // mean of last two
}

TEST(Estimators, TStormSystemRunsWithHoltEstimator) {
  sim::Simulation sim;
  CoreConfig core;
  core.estimator = "holt";
  TStormSystem sys(sim, {}, core);
  sys.submit(workload::make_throughput_test());
  sim.run_until(120.0);
  EXPECT_GT(sys.cluster().completion().total_completed(), 1000u);
  EXPECT_TRUE(sys.db().has_samples());
}

// ------------------------------------------------------------ EnergyMeter

TEST(EnergyMeter, CountsOnlyNodesHostingExecutors) {
  sim::Simulation sim;
  runtime::Cluster cluster(sim, {});
  EnergyMeter meter(cluster);
  meter.start();
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(meter.node_seconds(), 0.0);  // nothing scheduled
  EXPECT_DOUBLE_EQ(meter.joules(), 0.0);
}

TEST(EnergyMeter, ConsolidationReducesEnergy) {
  struct Cost {
    double node_seconds;
    double kwh;
  };
  auto measure = [](double gamma) {
    sim::Simulation sim;
    CoreConfig core;
    core.gamma = gamma;
    TStormSystem sys(sim, {}, core);
    EnergyMeter meter(sys.cluster());
    meter.start();
    sys.submit(workload::make_throughput_test());
    sim.run_until(800.0);
    return Cost{meter.node_seconds(), meter.kwh()};
  };
  const auto spread = measure(1.0);
  const auto packed = measure(6.0);
  EXPECT_GT(spread.node_seconds, 0.0);
  // gamma=6 consolidates to ~2 nodes after t~310 s: far less node time
  // and energy than 10 always-on nodes.
  EXPECT_LT(packed.node_seconds, spread.node_seconds * 0.75);
  EXPECT_LT(packed.kwh, spread.kwh * 0.8);
}

TEST(EnergyMeter, MeanNodesOnMatchesUsage) {
  sim::Simulation sim;
  core::StormSystem sys(sim);
  EnergyMeter meter(sys.cluster());
  meter.start();
  sys.submit(workload::make_throughput_test());
  sim.run_until(500.0);
  // Storm uses all 10 nodes once started (~12 s startup).
  EXPECT_GT(meter.mean_nodes_on(), 9.0);
  EXPECT_LE(meter.mean_nodes_on(), 10.0);
}

/// Emits a tuple at every poll, at a negligible CPU cost.
class CountingSpout : public topo::Spout {
 public:
  std::optional<topo::Tuple> next_tuple() override {
    return topo::Tuple{counter_++};
  }
  double cpu_cost_mega_cycles() const override { return 0.01; }

 private:
  std::int64_t counter_ = 0;
};

/// Burns no cycles: each tuple is one second of blocking I/O.
class IoOnlyBolt : public topo::Bolt {
 public:
  void execute(const topo::Tuple&, topo::BoltContext&) override {}
  double cpu_cost_mega_cycles(const topo::Tuple&) const override {
    return 0.0;
  }
  double io_time_seconds(const topo::Tuple&) const override { return 1.0; }
};

TEST(EnergyMeter, IoWaitCountsAsBusy) {
  // An executor holds its thread busy through the I/O phase of a service
  // (Executor::begin_service adds service_io_s to the service time), so
  // the meter bills I/O wait as CPU utilization although no cycles are
  // consumed. Pinned as the documented model (MODEL.md "Nodes and CPU").
  sim::Simulation sim;
  runtime::Cluster cluster(sim, {});
  topo::TopologyBuilder b;
  b.set_spout("s", [] { return std::make_unique<CountingSpout>(); }, 1)
      .output_fields({"v"})
      .emit_interval(0.1);
  b.set_bolt("io", [] { return std::make_unique<IoOnlyBolt>(); }, 1)
      .shuffle_grouping("s");
  sched::ManualScheduler manual(sched::Placement{{0, 0}});
  const auto id = cluster.submit(b.build("io", 1, 1), &manual);
  sim.run_until(60.0);  // past startup; the bolt's queue is never empty

  runtime::Executor* bolt =
      cluster.instances_of(cluster.tasks_of_component(id, "io").front())
          .front();
  (void)bolt->take_mega_cycles();
  EnergyMeter meter(cluster, {.period = 1.0});
  meter.start();
  for (double t = 60.5; t < 80.0; t += 1.0) {
    sim.run_until(t);
    EXPECT_GE(cluster.node(0).busy_threads(), 1) << "t = " << t;
  }
  EXPECT_DOUBLE_EQ(bolt->take_mega_cycles(), 0.0);
  // Every sample sees the I/O-bound thread: 1 of 4 cores busy.
  const EnergyModelConfig power;
  EXPECT_GE(meter.joules(), (power.idle_watts + power.dynamic_watts / 4) *
                                meter.node_seconds());
}

// ------------------------------------------------------------ Node failure

TEST(NodeFailure, FailedNodeDropsOutOfSchedulerInput) {
  sim::Simulation sim;
  runtime::Cluster cluster(sim, {});
  EXPECT_TRUE(cluster.fail_node(3));
  EXPECT_FALSE(cluster.fail_node(3));  // already down
  EXPECT_FALSE(cluster.node_available(3));
  const auto input = cluster.scheduler_input({});
  for (const auto& slot : input.slots) EXPECT_NE(slot.node, 3);
  EXPECT_DOUBLE_EQ(input.node_capacity_mhz(3), 0.0);
  EXPECT_TRUE(cluster.recover_node(3));
  EXPECT_EQ(cluster.scheduler_input({}).slots.size(), 40u);
}

TEST(NodeFailure, WorkersDieWithTheNode) {
  sim::Simulation sim;
  core::StormSystem sys(sim);
  sys.submit(workload::make_throughput_test());
  sim.run_until(60.0);
  auto& cluster = sys.cluster();
  ASSERT_FALSE(cluster.executors_on_node(0).empty());
  cluster.fail_node(0);
  EXPECT_TRUE(cluster.executors_on_node(0).empty());
  // Stock Storm: nobody reschedules; the dead node's supervisor is gone
  // and its executors stay missing.
  sim.run_until(120.0);
  EXPECT_TRUE(cluster.executors_on_node(0).empty());
}

TEST(NodeFailure, TStormReschedulesAroundDeadNode) {
  sim::Simulation sim;
  CoreConfig core;
  core.gamma = 2.0;
  TStormSystem sys(sim, {}, core);
  const auto id = sys.submit(workload::make_throughput_test());
  sim.run_until(100.0);
  auto& cluster = sys.cluster();

  // Pick a node hosting executors of the topology and kill the machine.
  sched::NodeId victim = -1;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    if (!cluster.executors_on_node(n).empty()) {
      victim = n;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  cluster.fail_node(victim);

  // The generator notices the dead assignment within a monitor period,
  // publishes a repaired schedule, the custom scheduler applies it, and
  // supervisors rebuild the workers elsewhere.
  sim.run_until(200.0);
  EXPECT_TRUE(cluster.executors_on_node(victim).empty());
  const auto* record = cluster.coordination().get(id);
  ASSERT_NE(record, nullptr);
  for (const auto& [task, slot] : record->placement) {
    EXPECT_NE(cluster.slot_node(slot), victim);
  }
  // Every task has a live instance again and completions continue.
  const auto completed = cluster.completion().total_completed();
  sim.run_until(300.0);
  EXPECT_GT(cluster.completion().total_completed(), completed);
}

TEST(NodeFailure, RecoveredNodeBecomesSchedulableAgain) {
  sim::Simulation sim;
  CoreConfig core;
  TStormSystem sys(sim, {}, core);
  sys.submit(workload::make_throughput_test());
  sim.run_until(100.0);
  sys.cluster().fail_node(5);
  sim.run_until(200.0);
  sys.cluster().recover_node(5);
  EXPECT_TRUE(sys.cluster().node_available(5));
  // Nothing forces executors back, but the node's slots are offered again.
  const auto input = sys.cluster().scheduler_input({});
  bool node5_present = false;
  for (const auto& slot : input.slots) node5_present |= slot.node == 5;
  EXPECT_TRUE(node5_present);
}

}  // namespace
}  // namespace tstorm::core

namespace tstorm::metrics {
namespace {

// -------------------------------------------------------- LatencyHistogram

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, PercentilesOrdered) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_LE(h.percentile(50), h.percentile(90));
  EXPECT_LE(h.percentile(90), h.percentile(99));
  EXPECT_LE(h.percentile(99), h.percentile(100));
}

TEST(LatencyHistogram, PercentileAccurateWithinBinResolution) {
  LatencyHistogram h;
  for (int i = 1; i <= 10000; ++i) h.add(static_cast<double>(i) / 10.0);
  // p50 of uniform [0.1, 1000] is ~500; bins are ~4.4% wide.
  EXPECT_NEAR(h.percentile(50), 500.0, 500.0 * 0.06);
  EXPECT_NEAR(h.percentile(99), 990.0, 990.0 * 0.06);
}

TEST(LatencyHistogram, OutOfRangeClamped) {
  LatencyHistogram h;
  h.add(1e-9);
  h.add(1e12);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
  EXPECT_GT(h.percentile(100), 9e5);
}

TEST(LatencyHistogram, MeanAndMaxExact) {
  LatencyHistogram h;
  h.add(1.0);
  h.add(3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

}  // namespace
}  // namespace tstorm::metrics
