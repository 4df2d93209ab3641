// Tests for the flow-control subsystem: bounded executor queues,
// backpressure propagation (coordination flag + spout pausing with
// hysteresis), the three load-shedding policies, shed attribution,
// observability (gauges, MetricsDb queue pressure, the traffic-aware
// scheduler's optional queue-pressure weight), and the determinism
// guarantees (same seed => byte-identical trace; flow disabled => no flow
// events at all).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/auditor.h"
#include "core/load_monitor.h"
#include "core/metrics_db.h"
#include "core/system.h"
#include "flow/flow.h"
#include "metrics/reporter.h"
#include "runtime/cluster.h"
#include "sched/traffic_aware.h"
#include "sim/simulation.h"
#include "trace/trace.h"
#include "workload/topologies.h"

namespace tstorm {
namespace {

using runtime::ClusterConfig;
using runtime::DropCause;
using runtime::ShedPolicy;
using trace::EventKind;

/// The Fig. 3 failure mode on purpose: 5 fast spouts feed one slow bolt
/// (10 ms/tuple at 2 GHz), everything in one worker, so the bolt's input
/// queue is the bottleneck of the whole topology.
workload::ChainOptions overload_chain() {
  workload::ChainOptions opt;
  opt.spout_parallelism = 5;
  opt.bolts = 1;
  opt.bolt_parallelism = 1;
  opt.ackers = 2;
  opt.workers = 1;
  opt.bolt_cost_mc = 20.0;
  // Lift the spouts' self-limiting pending cap: these tests measure what
  // flow control does, so the pending window must not be the thing that
  // bounds the queue.
  opt.max_pending = 1 << 20;
  return opt;
}

ClusterConfig flow_config(int capacity) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.flow.enabled = true;
  cfg.flow.queue_capacity = capacity;
  return cfg;
}

/// Deepest data queue across all registered executors.
std::size_t max_data_depth(runtime::Cluster& cluster) {
  std::size_t deepest = 0;
  for (runtime::Executor* e : cluster.registered_executors()) {
    deepest = std::max(deepest, e->data_queue_depth());
  }
  return deepest;
}

// ------------------------------------------------------- Bounded queues ---

TEST(BoundedQueues, DepthNeverExceedsCapacityUnderSustainedOverload) {
  sim::Simulation sim;
  const ClusterConfig cfg = flow_config(64);
  core::StormSystem sys(sim, cfg);
  sys.submit(workload::make_chain(overload_chain()));
  auto& cluster = sys.cluster();

  std::size_t observed_max = 0;
  sim::PeriodicTask sampler(sim, 0.1, [&] {
    observed_max = std::max(observed_max, max_data_depth(cluster));
  });
  sampler.start(5.0);
  sim.run_until(60.0);
  sampler.stop();

  // The bolt must actually have been pressed against the bound...
  EXPECT_GT(observed_max, static_cast<std::size_t>(cfg.flow.low_mark()));
  // ...and the bound must hold at every sample.
  EXPECT_LE(observed_max, static_cast<std::size_t>(cfg.flow.queue_capacity));
  // Overload was real: work still completed (graceful degradation, not
  // collapse).
  EXPECT_GT(cluster.completion().total_completed(), 0u);
}

TEST(BoundedQueues, DisabledFlowReproducesMonotoneGrowth) {
  // The failure mode this PR fixes: without flow control the same overload
  // grows the bolt queue without bound.
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.num_nodes = 2;  // flow disabled
  core::StormSystem sys(sim, cfg);
  sys.submit(workload::make_chain(overload_chain()));
  auto& cluster = sys.cluster();

  sim.run_until(30.0);
  const std::size_t at30 = max_data_depth(cluster);
  sim.run_until(60.0);
  const std::size_t at60 = max_data_depth(cluster);
  EXPECT_GT(at60, at30);
  EXPECT_GT(at60, 64u);  // far past any reasonable bound
  // And no flow-control artifacts exist anywhere.
  EXPECT_EQ(cluster.trace_log().count(EventKind::kBackpressureOn), 0u);
  EXPECT_EQ(cluster.trace_log().count(EventKind::kBackpressureOff), 0u);
  EXPECT_EQ(cluster.trace_log().count(EventKind::kTupleShed), 0u);
  EXPECT_EQ(cluster.dropped_by(DropCause::kLoadShed), 0u);
}

// --------------------------------------------------------- Backpressure ---

TEST(Backpressure, ThrottleFlagReachesCoordinationAndTracesTransitions) {
  sim::Simulation sim;
  const ClusterConfig cfg = flow_config(64);
  core::StormSystem sys(sim, cfg);
  const auto id = sys.submit(workload::make_chain(overload_chain()));
  auto& cluster = sys.cluster();

  sim.run_until(30.0);
  const auto on = cluster.trace_log().count(EventKind::kBackpressureOn);
  const auto off = cluster.trace_log().count(EventKind::kBackpressureOff);
  EXPECT_GE(on, 1u);
  // The flag's trace state, the controller state and the coordination
  // store must agree at all times.
  EXPECT_EQ(cluster.flow().throttled(id),
            cluster.coordination().backpressure(id));
  EXPECT_EQ(cluster.flow().throttled(id), on == off + 1);
  EXPECT_TRUE(on == off || on == off + 1);

  // Killing the topology unwinds everything: executors forget their
  // throttle contributions, so the flag must clear and every On must have
  // found its Off.
  cluster.kill_topology(id);
  sim.run_until(sim.now() + 2 * cfg.supervisor_sync_period + 5.0);
  EXPECT_FALSE(cluster.flow().throttled(id));
  EXPECT_FALSE(cluster.coordination().backpressure(id));
  EXPECT_EQ(cluster.trace_log().count(EventKind::kBackpressureOn),
            cluster.trace_log().count(EventKind::kBackpressureOff));
}

TEST(Backpressure, TransitionsAlternateWithHysteresis) {
  sim::Simulation sim;
  core::StormSystem sys(sim, flow_config(64));
  sys.submit(workload::make_chain(overload_chain()));
  sim.run_until(40.0);

  // Walk the trace: On and Off must strictly alternate, starting with On —
  // the hysteresis band means one queue cannot flap the flag per event.
  bool expect_on = true;
  std::size_t transitions = 0;
  for (const auto& e : sys.cluster().trace_log().events()) {
    if (e.kind != EventKind::kBackpressureOn &&
        e.kind != EventKind::kBackpressureOff) {
      continue;
    }
    ++transitions;
    EXPECT_EQ(e.kind == EventKind::kBackpressureOn, expect_on)
        << "transition " << transitions << " out of order at t=" << e.time;
    expect_on = !expect_on;
  }
  EXPECT_GE(transitions, 1u);
}

TEST(Backpressure, SpoutsActuallyPauseWhileThrottled) {
  // With backpressure holding spouts back, the spout side emits roughly
  // what the bolt can service — far below the unthrottled offered rate.
  sim::Simulation sim;
  core::StormSystem sys(sim, flow_config(64));
  sys.submit(workload::make_chain(overload_chain()));
  auto& cluster = sys.cluster();
  sim.run_until(60.0);

  // Offered (unthrottled) load: 5 spouts at 200 tuples/s for ~55 s of
  // steady state would register >> 10k roots; the 10 ms bolt caps useful
  // throughput near 100/s. Registration staying within a few multiples of
  // service capacity proves emission was held back at the source.
  const auto registered = cluster.tracker().total_registered();
  EXPECT_GT(registered, 1000u);
  EXPECT_LT(registered, 25000u);
  EXPECT_GE(cluster.flow().throttle_activations(), 1u);
}

// ------------------------------------------------------------- Shedding ---

TEST(Shedding, VictimSelectionFollowsPolicy) {
  sim::Simulation sim;
  runtime::CoordinationStore coord;
  trace::TraceLog log;

  runtime::FlowConfig newest;
  newest.enabled = true;
  newest.shed_policy = ShedPolicy::kDropNewest;
  flow::FlowController a(sim, newest, coord, log, 1);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.choose_victim(), flow::ShedVictim::kNewest);
  }

  runtime::FlowConfig oldest = newest;
  oldest.shed_policy = ShedPolicy::kDropOldest;
  flow::FlowController b(sim, oldest, coord, log, 1);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(b.choose_victim(), flow::ShedVictim::kOldest);
  }

  // Probabilistic extremes degenerate to the pure policies.
  runtime::FlowConfig always = newest;
  always.shed_policy = ShedPolicy::kProbabilistic;
  always.shed_probability = 1.0;
  flow::FlowController c(sim, always, coord, log, 1);
  runtime::FlowConfig never = always;
  never.shed_probability = 0.0;
  flow::FlowController d(sim, never, coord, log, 1);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(c.choose_victim(), flow::ShedVictim::kNewest);
    EXPECT_EQ(d.choose_victim(), flow::ShedVictim::kOldest);
  }
}

TEST(Shedding, ProbabilisticDrawsAreSeedDeterministic) {
  sim::Simulation sim;
  runtime::CoordinationStore coord;
  trace::TraceLog log;
  runtime::FlowConfig fc;
  fc.enabled = true;
  fc.shed_policy = ShedPolicy::kProbabilistic;
  fc.shed_probability = 0.5;

  flow::FlowController a(sim, fc, coord, log, 77);
  flow::FlowController b(sim, fc, coord, log, 77);
  flow::FlowController c(sim, fc, coord, log, 78);
  std::vector<int> sa, sb, sc;
  for (int i = 0; i < 256; ++i) {
    sa.push_back(static_cast<int>(a.choose_victim()));
    sb.push_back(static_cast<int>(b.choose_victim()));
    sc.push_back(static_cast<int>(c.choose_victim()));
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
  // Both outcomes actually occur at p=0.5.
  EXPECT_TRUE(std::count(sa.begin(), sa.end(), 0) > 0 &&
              std::count(sa.begin(), sa.end(), 1) > 0);
}

class ShedPolicyIntegration : public ::testing::TestWithParam<ShedPolicy> {};

TEST_P(ShedPolicyIntegration, HardFullQueueShedsAndStaysConserved) {
  sim::Simulation sim;
  // high_watermark = 1.0 collapses the backpressure margin onto the hard
  // cap, so arrivals race the spout pause and shedding must engage. Two
  // workers put network latency between spouts and the bolt — the in-flight
  // tuples that land after the pause are the ones that get shed (a chain in
  // one worker is all intra-process: the pause wins the race every time and
  // nothing ever sheds).
  ClusterConfig cfg = flow_config(32);
  cfg.flow.high_watermark = 1.0;
  cfg.flow.low_watermark = 0.4;
  cfg.flow.shed_policy = GetParam();
  workload::ChainOptions chain = overload_chain();
  chain.workers = 2;
  core::StormSystem sys(sim, cfg);
  sys.submit(workload::make_chain(chain));
  auto& cluster = sys.cluster();
  sim.run_until(30.0);

  const auto shed = cluster.dropped_by(DropCause::kLoadShed);
  EXPECT_GT(shed, 0u) << "policy " << runtime::to_string(GetParam());
  // Double-entry bookkeeping: controller counters, drop causes and trace
  // events all agree.
  EXPECT_EQ(shed, cluster.flow().shed_total());
  EXPECT_EQ(shed, cluster.trace_log().count(EventKind::kTupleShed));
  EXPECT_GT(cluster.flow().shed_window().total(), 0u);
  // And the cluster-wide conservation laws survive the carnage.
  const chaos::AuditReport report =
      chaos::InvariantAuditor(cluster).check_now();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ShedPolicyIntegration,
                         ::testing::Values(ShedPolicy::kDropNewest,
                                           ShedPolicy::kDropOldest,
                                           ShedPolicy::kProbabilistic));

// -------------------------------------------------------- Observability ---

TEST(FlowGauges, PerExecutorRowsAndPrinter) {
  sim::Simulation sim;
  ClusterConfig cfg = flow_config(32);
  cfg.flow.high_watermark = 1.0;  // force some shedding
  core::StormSystem sys(sim, cfg);
  sys.submit(workload::make_chain(overload_chain()));
  auto& cluster = sys.cluster();
  sim.run_until(30.0);

  const auto rows = cluster.flow_gauges();
  ASSERT_FALSE(rows.empty());
  // Sorted by task; the shed totals across rows match the controller.
  std::uint64_t shed_sum = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].task, rows[i].task);
  }
  for (const auto& r : rows) shed_sum += r.shed;
  EXPECT_EQ(shed_sum, cluster.flow().shed_total());

  std::ostringstream os;
  metrics::print_flow_gauges(os, rows, 1.25);
  EXPECT_NE(os.str().find("total"), std::string::npos);
  EXPECT_NE(os.str().find("1.25 shed/s"), std::string::npos);
}

TEST(QueuePressure, LoadMonitorFeedsExecutorQueueIntoMetricsDb) {
  sim::Simulation sim;
  core::StormSystem sys(sim, flow_config(64));
  const auto id = sys.submit(workload::make_chain(overload_chain()));
  auto& cluster = sys.cluster();

  core::MetricsDb db;
  // The chain runs in one worker; monitor whichever node hosts it.
  sim.run_until(10.0);
  sched::NodeId hosting = -1;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    if (!cluster.executors_on_node(n).empty()) hosting = n;
  }
  ASSERT_GE(hosting, 0);
  core::LoadMonitor monitor(cluster, db, hosting, 1.0);
  monitor.start(0.5);
  sim.run_until(40.0);

  // The congested bolt's queue pressure must be visible to schedulers.
  double deepest = 0;
  for (sched::TaskId task : cluster.tasks_of_component(id, "bolt1")) {
    deepest = std::max(deepest, db.executor_queue(task));
  }
  EXPECT_GT(deepest, 1.0);
  // forget_task clears the estimate like the other per-task series.
  for (sched::TaskId task : cluster.tasks_of_component(id, "bolt1")) {
    db.forget_task(task);
    EXPECT_DOUBLE_EQ(db.executor_queue(task), 0.0);
  }
}

TEST(QueuePressure, TrafficAwareWeightInflatesEffectiveLoad) {
  // One executor whose CPU load fits the node but whose backlog does not:
  // with queue_pressure_weight = 0 (the paper's Algorithm 1) it places
  // cleanly; with a positive weight the capacity constraint must be
  // relaxed to place it.
  sched::SchedulerInput in;
  in.executors.push_back({/*task=*/0, /*topology=*/0,
                          /*demand=*/{/*load_mhz=*/50.0},
                          /*queue_depth=*/100.0});
  in.slots.push_back({0, 0, 0});
  in.topologies.push_back({0, 1});
  in.nodes = {{0, {100.0}}};

  sched::TrafficAwareScheduler alg;
  const auto base = alg.schedule(in);
  ASSERT_EQ(base.assignment.size(), 1u);
  EXPECT_FALSE(base.capacity_relaxed);

  in.queue_pressure_weight = 1.0;  // effective load 50 + 100 > 100
  const auto pressured = alg.schedule(in);
  ASSERT_EQ(pressured.assignment.size(), 1u);
  EXPECT_TRUE(pressured.capacity_relaxed);
}

// ---------------------------------------------------------- Determinism ---

std::string run_overload_and_format(const ClusterConfig& cfg) {
  sim::Simulation sim;
  core::StormSystem sys(sim, cfg);
  // Two workers so spout->bolt hops have latency and the shed path runs
  // (see ShedPolicyIntegration for why one worker never sheds).
  workload::ChainOptions chain = overload_chain();
  chain.workers = 2;
  sys.submit(workload::make_chain(chain));
  sim.run_until(45.0);
  std::string out;
  for (const auto& e : sys.cluster().trace_log().events()) {
    out += trace::format_event(e);
    out += '\n';
  }
  out += "completed=" +
         std::to_string(sys.cluster().completion().total_completed()) +
         " shed=" +
         std::to_string(sys.cluster().dropped_by(DropCause::kLoadShed)) +
         " dropped=" + std::to_string(sys.cluster().dropped_messages());
  return out;
}

TEST(FlowDeterminism, SameSeedYieldsByteIdenticalTraceWithFlowOn) {
  ClusterConfig cfg = flow_config(32);
  cfg.flow.high_watermark = 1.0;  // exercise shedding too
  cfg.flow.shed_policy = ShedPolicy::kProbabilistic;
  cfg.seed = 1234;
  const std::string first = run_overload_and_format(cfg);
  EXPECT_EQ(first, run_overload_and_format(cfg));
  EXPECT_NE(first.find("tuple-shed"), std::string::npos);

  ClusterConfig other = cfg;
  other.seed = 1235;
  EXPECT_NE(first, run_overload_and_format(other));
}

TEST(FlowDeterminism, DisabledFlowEmitsNoFlowEventsAndShedsNothing) {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  ASSERT_FALSE(cfg.flow.enabled);  // the documented default
  const std::string out = run_overload_and_format(cfg);
  EXPECT_EQ(out.find("backpressure"), std::string::npos);
  EXPECT_EQ(out.find("tuple-shed"), std::string::npos);
  EXPECT_NE(out.find("shed=0"), std::string::npos);
  // And it is reproducible, like every disabled-feature path.
  EXPECT_EQ(out, run_overload_and_format(cfg));
}

// --------------------------------------------------- Config validation ---

TEST(FlowConfigValidation, RejectsOrClampsBadValues) {
#ifndef NDEBUG
  ClusterConfig bad_cap;
  bad_cap.flow.queue_capacity = 0;
  EXPECT_DEATH((void)runtime::validated(bad_cap), "out of range");
  ClusterConfig bad_mark;
  bad_mark.flow.high_watermark = 1.5;
  EXPECT_DEATH((void)runtime::validated(bad_mark), "out of range");
  ClusterConfig inverted;
  inverted.flow.low_watermark = 0.9;
  inverted.flow.high_watermark = 0.5;
  EXPECT_DEATH((void)runtime::validated(inverted), "out of range");
  ClusterConfig bad_prob;
  bad_prob.flow.shed_probability = -0.25;
  EXPECT_DEATH((void)runtime::validated(bad_prob), "out of range");
#else
  ClusterConfig bad;
  bad.flow.queue_capacity = 0;
  bad.flow.high_watermark = 1.5;
  bad.flow.low_watermark = 2.0;
  bad.flow.throttle_refresh_period = 0.0;
  bad.flow.shed_probability = -0.25;
  const ClusterConfig v = runtime::validated(bad);
  EXPECT_EQ(v.flow.queue_capacity, 1);
  EXPECT_DOUBLE_EQ(v.flow.high_watermark, 1.0);
  EXPECT_LE(v.flow.low_watermark, v.flow.high_watermark);
  EXPECT_GT(v.flow.throttle_refresh_period, 0.0);
  EXPECT_DOUBLE_EQ(v.flow.shed_probability, 0.0);
#endif
}

TEST(FlowConfigValidation, WatermarkHelpersAndPolicyNames) {
  runtime::FlowConfig fc;
  fc.queue_capacity = 100;
  fc.high_watermark = 0.8;
  fc.low_watermark = 0.4;
  EXPECT_EQ(fc.high_mark(), 80);
  EXPECT_EQ(fc.low_mark(), 40);
  EXPECT_STREQ(runtime::to_string(ShedPolicy::kDropNewest), "drop-newest");
  EXPECT_STREQ(runtime::to_string(ShedPolicy::kDropOldest), "drop-oldest");
  EXPECT_STREQ(runtime::to_string(ShedPolicy::kProbabilistic),
               "probabilistic");
}

}  // namespace
}  // namespace tstorm
