// Figure 6: performance on the Word Count (stream version) topology.
//
// 10 worker nodes, 20 workers requested, 2 reader spouts / 5 split / 5
// count / 5 mongo executors. Input: a text stream pushed into a Redis-like
// queue at a fixed line rate. Storm vs T-Storm with gamma = 1, 1.8 and
// 2.2. Paper: 49 % / 42 % / 35 % speedups using 10 / 7 / 5 nodes; the
// bolts do substantial work, so aggressive consolidation starts to hurt.
#include <iostream>

#include "harness.h"
#include "workload/external_queue.h"
#include "workload/topologies.h"

using namespace tstorm;

namespace {

constexpr double kLineRate = 260.0;  // lines/second

bench::RunSpec wc_spec(const std::string& label, bool tstorm, double gamma) {
  bench::RunSpec spec;
  spec.label = label;
  spec.tstorm = tstorm;
  spec.core.gamma = gamma;
  spec.make_topology = [](sim::Simulation& sim,
                          std::vector<std::shared_ptr<void>>& keepalive) {
    auto wc = workload::make_word_count();
    auto producer = std::make_shared<workload::QueueProducer>(
        sim, *wc.queue, kLineRate);
    producer->start();
    keepalive.push_back(wc.queue);
    keepalive.push_back(std::move(producer));
    return std::move(wc.topology);
  };
  return spec;
}

}  // namespace

int main() {
  std::cout << "Figure 6 — Word Count topology (10 nodes, 20 workers "
               "requested, 2+5+5+5 executors), input "
            << kLineRate << " lines/s\n";

  const auto storm = bench::run(wc_spec("Storm", false, 1.0));
  const auto g1 = bench::run(wc_spec("T-Storm g=1", true, 1.0));
  const auto g18 = bench::run(wc_spec("T-Storm g=1.8", true, 1.8));
  const auto g22 = bench::run(wc_spec("T-Storm g=2.2", true, 2.2));

  bench::print_comparison("Fig. 6(a): gamma = 1 (paper: 49% speedup, 10 nodes)",
                          {storm, g1}, 150.0, 1000.0);
  bench::print_node_timeline(g1);
  // At gamma = 1 the generator reassigns at ~330 s; its handover minute
  // dominates the window above, so also report the minutes after it.
  bench::print_comparison("Fig. 6(a) after the reassignment window",
                          {storm, g1}, 360.0, 1000.0);

  bench::print_comparison(
      "Fig. 6(b): gamma = 1.8 (paper: 42% speedup, 7 nodes)", {storm, g18},
      500.0, 1000.0);
  bench::print_node_timeline(g18);

  bench::print_comparison(
      "Fig. 6(c): gamma = 2.2 (paper: 35% speedup, 5 nodes)", {storm, g22},
      500.0, 1000.0);
  bench::print_node_timeline(g22);
  return 0;
}
