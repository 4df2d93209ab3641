// Process-level counters, sample statistics, scheduler-pass timing and the
// per-layer microbenchmarks. Each microbenchmark times a fixed amount of
// work through one layer's public API.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>

#include "bench.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "state/state_store.h"
#include "topo/tuple.h"
#include "workload/textgen.h"

namespace perfbench {

namespace sched = tstorm::sched;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double tail_percentile(std::vector<double> v, std::size_t tail, double* pct) {
  if (v.empty()) {
    if (pct != nullptr) *pct = 0;
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Whole percentiles from 99 down: the first whose nearest-rank sample
  // leaves at least `tail` samples above it.
  for (int p = 99; p >= 50; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= tail) {
      if (pct != nullptr) *pct = p;
      return v[rank - 1];
    }
  }
  if (pct != nullptr) *pct = 100;
  return v.back();
}

std::uint64_t hash_placement(const sched::Placement& placement) {
  std::vector<std::pair<sched::TaskId, sched::SlotIndex>> sorted(
      placement.begin(), placement.end());
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [task, slot] : sorted) {
    h = tstorm::state::mix64(h ^ static_cast<std::uint64_t>(task));
    h = tstorm::state::mix64(h ^ static_cast<std::uint64_t>(slot));
  }
  return h;
}

namespace {

/// Result contract of every scheduler: each executor gets a slot of the
/// input, and a placement over some node's capacity carries a flag.
std::string check_result(const sched::SchedulerInput& in,
                         const sched::ScheduleResult& r) {
  std::unordered_set<sched::SlotIndex> slots;
  for (const auto& s : in.slots) slots.insert(s.slot);
  for (const auto& e : in.executors) {
    auto it = r.assignment.find(e.task);
    if (it == r.assignment.end()) {
      return "executor " + std::to_string(e.task) + " not placed";
    }
    if (!slots.contains(it->second)) {
      return "executor " + std::to_string(e.task) + " on unknown slot " +
             std::to_string(it->second);
    }
  }
  sched::ScheduleResult audited;
  audited.assignment = r.assignment;
  sched::audit_capacity(in, audited);
  if (audited.capacity_relaxed && !r.capacity_relaxed && !r.count_relaxed) {
    return "over-capacity placement without a relaxation flag";
  }
  return {};
}

}  // namespace

PassStats time_passes(const std::string& algorithm,
                      const sched::SchedulerInput& in, int passes,
                      double max_seconds) {
  PassStats stats;
  auto alg = sched::AlgorithmRegistry::instance().create(algorithm);
  if (alg == nullptr) {
    stats.error = "unknown algorithm " + algorithm;
    return stats;
  }
  const auto start = Clock::now();
  for (int i = 0; i < passes; ++i) {
    const auto t0 = Clock::now();
    const sched::ScheduleResult r = alg->schedule(in);
    stats.ms.push_back(seconds_since(t0) * 1e3);
    const std::uint64_t h = hash_placement(r.assignment);
    if (i == 0) {
      stats.error = check_result(in, r);
      stats.placement_hash = h;
      stats.relaxed = r.count_relaxed || r.capacity_relaxed;
      stats.internode_traffic = sched::internode_traffic(in, r.assignment);
    } else if (h != stats.placement_hash) {
      stats.error = "placement differs between passes over one input";
    }
    if (!stats.error.empty()) break;
    if (seconds_since(start) > max_seconds) break;
  }
  if (!stats.error.empty()) stats.error = algorithm + ": " + stats.error;
  return stats;
}

// ------------------------------------------------------------ microbenches
namespace {

using tstorm::sim::Simulation;

/// Standing population of events, each scheduling one successor while the
/// budget lasts: the engine's schedule / pop / execute cycle.
struct Pump {
  Simulation* sim = nullptr;
  std::uint64_t budget = 0;
  std::uint64_t executed = 0;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink = 0;

  double step() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return 1e-6 * (1.0 + static_cast<double>(lcg >> 60));
  }
  void fire(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    ++executed;
    sink += a ^ b ^ c;
    if (budget > 0) {
      --budget;
      sim->schedule_after(step(), [this, a, b, c] { fire(a + 1, b, c); });
    }
  }
  void seed(std::uint64_t population) {
    for (std::uint64_t i = 0; i < population; ++i) {
      sim->schedule_after(step(), [this, i] { fire(i, i + 1, i + 2); });
    }
  }
};

double schedule_run_ns() {
  constexpr std::uint64_t kPopulation = 1024;
  constexpr std::uint64_t kEvents = 2'000'000;
  Simulation sim;
  Pump pump;
  pump.sim = &sim;
  pump.seed(kPopulation);  // warm-up: slot map, heap and freelists
  pump.budget = 4 * kPopulation;
  sim.run();
  pump.seed(kPopulation);
  pump.budget = kEvents;
  pump.executed = 0;
  const auto t0 = Clock::now();
  sim.run();
  return seconds_since(t0) * 1e9 / static_cast<double>(pump.executed);
}

double send_ns(tstorm::net::LinkType type) {
  constexpr int kBatch = 1024;
  constexpr int kBatches = 200;
  Simulation sim;
  tstorm::net::Network net(sim, tstorm::net::NetworkConfig{}, 10);
  const int dst = type == tstorm::net::LinkType::kInterNode ? 1 : 0;
  std::uint64_t delivered = 0;
  double timed = 0;
  for (int b = 0; b < kBatches + 1; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      net.send(0, dst, type, 100, [&delivered] { ++delivered; });
    }
    if (b > 0) timed += seconds_since(t0);  // batch 0 warms the engine
    sim.run();
  }
  return timed * 1e9 / (static_cast<double>(kBatch) * kBatches);
}

double textgen_ns_per_line(std::uint64_t seed) {
  constexpr int kLines = 200'000;
  tstorm::workload::TextGenerator::Options opt;
  opt.seed = seed;
  tstorm::workload::TextGenerator gen(opt);
  std::size_t sink = 0;
  for (int i = 0; i < 1000; ++i) sink += gen.next_line().size();
  const auto t0 = Clock::now();
  for (int i = 0; i < kLines; ++i) sink += gen.next_line().size();
  const double ns = seconds_since(t0) * 1e9 / kLines;
  return sink == 0 ? -ns : ns;  // keeps the loop observable
}

double snapshot_ns_per_key(std::uint64_t seed) {
  constexpr int kRounds = 200;
  tstorm::workload::TextGenerator::Options opt;
  opt.seed = seed;
  tstorm::workload::TextGenerator gen(opt);
  tstorm::state::StateStore store;
  for (const std::string& word : gen.vocabulary()) {
    store.increment(tstorm::topo::Value(word),
                    static_cast<std::int64_t>(word.size()));
  }
  tstorm::state::StateStore restored;
  const auto t0 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    const tstorm::state::Snapshot snap = store.snapshot();
    restored.restore(snap);
  }
  return seconds_since(t0) * 1e9 /
         (static_cast<double>(kRounds) * static_cast<double>(store.size()));
}

}  // namespace

MicroResults run_microbenches(SpanRecorder& spans, std::uint64_t seed,
                              bool with_text) {
  MicroResults r;
  {
    ScopedSpan s(spans, "micro.sim.schedule_run");
    r.schedule_run_ns = schedule_run_ns();
  }
  const tstorm::net::LinkType links[3] = {
      tstorm::net::LinkType::kIntraProcess,
      tstorm::net::LinkType::kInterProcess,
      tstorm::net::LinkType::kInterNode};
  for (int i = 0; i < 3; ++i) {
    ScopedSpan s(spans, std::string("micro.net.send.") +
                            tstorm::net::to_string(links[i]));
    r.send_ns[i] = send_ns(links[i]);
  }
  if (with_text) {
    ScopedSpan s(spans, "micro.workload.textgen");
    r.textgen_ns_per_line = textgen_ns_per_line(seed);
  }
  {
    ScopedSpan s(spans, "micro.state.snapshot_restore");
    r.snapshot_ns_per_key = snapshot_ns_per_key(seed);
  }
  return r;
}

}  // namespace perfbench
