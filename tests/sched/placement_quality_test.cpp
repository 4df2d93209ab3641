// Placement-quality gate: on scheduler inputs captured from short T-Storm
// runs of the paper's workloads, Algorithm 1 must not leave more inter-node
// traffic than round-robin, the objective it minimizes. Throughput Test is
// a known deviation (EXPERIMENTS.md): with shuffle-only all-to-all traffic
// every executor talks to every executor of the next component, and the
// greedy loses narrowly. That case is pinned the other way round, so a
// change that flips it fails here until the documentation is updated.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/system.h"
#include "sched/scheduler.h"
#include "sim/simulation.h"
#include "workload/external_queue.h"
#include "workload/topologies.h"

namespace tstorm::sched {
namespace {

namespace wl = workload;

/// Simulated seconds before the input is captured: long enough for the
/// load monitors to report measured traffic several times.
constexpr double kWarmup = 100.0;

struct Workload {
  int nodes = 10;
  double gamma = 1.0;
  /// Submits the topologies; queues and producers go into `keep`.
  std::function<void(sim::Simulation&, core::TStormSystem&,
                     std::vector<std::shared_ptr<void>>& keep)>
      populate;
};

void feed(sim::Simulation& sim, std::shared_ptr<wl::ExternalQueue> queue,
          double lines_per_s, std::vector<std::shared_ptr<void>>& keep) {
  auto producer =
      std::make_shared<wl::QueueProducer>(sim, *queue, lines_per_s);
  producer->start();
  keep.push_back(std::move(queue));
  keep.push_back(std::move(producer));
}

void word_count(sim::Simulation& sim, core::TStormSystem& sys,
                std::vector<std::shared_ptr<void>>& keep,
                wl::WordCountOptions opt, double rate) {
  auto wc = wl::make_word_count(opt);
  feed(sim, wc.queue, rate, keep);
  sys.submit(std::move(wc.topology));
}

void log_stream(sim::Simulation& sim, core::TStormSystem& sys,
                std::vector<std::shared_ptr<void>>& keep,
                wl::LogStreamOptions opt, double rate) {
  auto ls = wl::make_log_stream(opt);
  feed(sim, ls.queue, rate, keep);
  sys.submit(std::move(ls.topology));
}

/// The generator's input after kWarmup simulated seconds.
SchedulerInput captured_input(const Workload& w) {
  sim::Simulation sim;
  runtime::ClusterConfig cluster;
  cluster.num_nodes = w.nodes;
  core::CoreConfig core;
  core.gamma = w.gamma;
  std::vector<std::shared_ptr<void>> keep;
  core::TStormSystem sys(sim, cluster, core);
  w.populate(sim, sys, keep);
  sim.run_until(kWarmup);
  return sys.generator().build_input();
}

Workload word_count_workload() {  // Fig. 6(b)
  Workload w;
  w.gamma = 1.8;
  w.populate = [](auto& sim, auto& sys, auto& keep) {
    word_count(sim, sys, keep, {}, 260.0);
  };
  return w;
}

Workload log_stream_workload() {  // Fig. 8(b)
  Workload w;
  w.gamma = 1.7;
  w.populate = [](auto& sim, auto& sys, auto& keep) {
    log_stream(sim, sys, keep, {}, 400.0);
  };
  return w;
}

Workload throughput_test_workload() {  // Fig. 5(a)
  Workload w;
  w.populate = [](auto&, auto& sys, auto&) {
    sys.submit(wl::make_throughput_test());
  };
  return w;
}

/// Two copies of each paper topology on 20 nodes at low input rates.
Workload fleet_workload() {
  Workload w;
  w.nodes = 20;
  w.populate = [](auto& sim, auto& sys, auto& keep) {
    for (int c = 0; c < 2; ++c) {
      const std::string tag = "-" + std::to_string(c);
      wl::WordCountOptions wc;
      wc.name += tag;
      wc.workers = 15;
      wc.emit_interval = 0.01;
      wc.text.seed += static_cast<std::uint64_t>(c);
      word_count(sim, sys, keep, wc, 30.0);

      wl::ThroughputTestOptions tt;
      tt.name += tag;
      tt.workers = 15;
      tt.emit_interval = 0.05;
      tt.seed += static_cast<std::uint64_t>(c);
      sys.submit(wl::make_throughput_test(tt));

      wl::LogStreamOptions ls;
      ls.name += tag;
      ls.workers = 15;
      ls.emit_interval = 0.01;
      ls.log.seed += static_cast<std::uint64_t>(c);
      log_stream(sim, sys, keep, ls, 30.0);
    }
  };
  return w;
}

/// Inter-node traffic (tuples/s) that `name` leaves on `in`.
double internode(const std::string& name, const SchedulerInput& in) {
  auto alg = AlgorithmRegistry::instance().create(name);
  const ScheduleResult r = alg->schedule(in);
  EXPECT_EQ(r.assignment.size(), in.executors.size()) << name;
  return internode_traffic(in, r.assignment);
}

struct Case {
  const char* name;
  Workload (*workload)();
  bool known_loss;  // traffic-aware loses to round-robin (documented)
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class PlacementQuality : public ::testing::TestWithParam<Case> {};

TEST_P(PlacementQuality, TrafficAwareVersusRoundRobin) {
  const Case c = GetParam();
  const SchedulerInput in = captured_input(c.workload());
  ASSERT_FALSE(in.traffic.empty());
  const double ta = internode("traffic-aware", in);
  const double rr = internode("round-robin", in);
  if (c.known_loss) {
    EXPECT_GT(ta, rr) << "traffic-aware no longer loses on " << c.name
                      << "; update EXPERIMENTS.md's known deviation";
  } else {
    EXPECT_LE(ta, rr) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperWorkloads, PlacementQuality,
    ::testing::Values(Case{"WordCount", word_count_workload, false},
                      Case{"LogStream", log_stream_workload, false},
                      Case{"ThroughputTest", throughput_test_workload, true},
                      Case{"Fleet", fleet_workload, false}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace tstorm::sched
