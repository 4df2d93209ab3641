// Golden placement digests: every registered scheduler runs on a fixed
// family of seeded random inputs and the placements are hashed. A refactor
// of the schedulers must leave every digest unchanged; a deliberate change
// to a placement rule updates the table below and names the inputs whose
// placement moved.
//
// The family covers what the capacity-aware schedulers branch on: inputs
// without `nodes` (unconstrained) and with heterogeneous capacity vectors,
// a failed node (zero capacity, no slots) below the highest node id,
// occupied slots, queue pressure, quantized traffic rates (so cost ties
// are common), gamma in [1, 4], and two slot numberings (node-major, and
// Storm's port-major listing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.h"
#include "sim/rng.h"

namespace tstorm::sched {
namespace {

constexpr std::uint64_t kInputs = 2400;

SchedulerInput golden_input(std::uint64_t seed) {
  sim::Rng rng(seed);
  SchedulerInput in;
  const int nodes = static_cast<int>(rng.uniform_int(1, 8));
  const int ports = static_cast<int>(rng.uniform_int(1, 4));
  const bool constrained = rng.bernoulli(0.75);
  const int failed = nodes >= 2 && rng.bernoulli(0.35)
                         ? static_cast<int>(rng.uniform_int(0, nodes - 2))
                         : -1;
  const bool port_major = rng.bernoulli(0.3);
  const bool quantized = rng.bernoulli(0.7);

  for (int n = 0; n < nodes; ++n) {
    if (!constrained) continue;
    if (n == failed) {
      in.nodes.push_back({n, {0.0, 0.0, 0.0}});
    } else {
      in.nodes.push_back({n,
                          {500.0 * static_cast<double>(rng.uniform_int(1, 8)),
                           512.0 * static_cast<double>(rng.uniform_int(1, 8)),
                           100.0 * static_cast<double>(rng.uniform_int(1, 5))}});
    }
  }
  // Port-major numbering lists slots the way Storm interleaves them:
  // (port 0, node 0), (port 0, node 1), ..., (port 1, node 0), ...
  const int outer = port_major ? ports : nodes;
  const int inner = port_major ? nodes : ports;
  for (int a = 0; a < outer; ++a) {
    for (int b = 0; b < inner; ++b) {
      const int n = port_major ? b : a;
      const int p = port_major ? a : b;
      if (n == failed) continue;
      const SlotIndex slot = port_major ? p * nodes + n : n * ports + p;
      in.slots.push_back({slot, n, p});
      if (rng.bernoulli(0.15)) in.occupied_slots.push_back(slot);
    }
  }

  const int topologies = static_cast<int>(rng.uniform_int(1, 3));
  const bool pressured = rng.bernoulli(0.3);
  TaskId task = 0;
  for (int t = 0; t < topologies; ++t) {
    in.topologies.push_back(
        {t, static_cast<int>(rng.uniform_int(1, 2 * nodes))});
    const TaskId first = task;
    const int count = static_cast<int>(rng.uniform_int(1, 10));
    for (int i = 0; i < count; ++i) {
      const double cpu = quantized
                             ? 50.0 * static_cast<double>(rng.uniform_int(1, 6))
                             : rng.uniform(10.0, 350.0);
      in.executors.push_back(
          {task++, t,
           {cpu, rng.uniform(10.0, 300.0), rng.uniform(1.0, 60.0)},
           pressured ? static_cast<double>(rng.uniform_int(0, 60)) : 0.0});
    }
    const auto rate = [&] {
      return quantized ? 10.0 * static_cast<double>(rng.uniform_int(1, 3))
                       : rng.uniform(0.1, 200.0);
    };
    for (TaskId e = first; e + 1 < task; ++e) {
      in.traffic.push_back({e, e + 1, rate()});
      in.topology_edges.emplace_back(e, e + 1);
    }
    for (int k = 0; k < count; ++k) {
      const auto a = static_cast<TaskId>(rng.uniform_int(first, task - 1));
      const auto b = static_cast<TaskId>(rng.uniform_int(first, task - 1));
      if (a != b) in.traffic.push_back({a, b, rate()});
    }
  }
  in.gamma = rng.bernoulli(0.25) ? 1.0 : rng.uniform(1.0, 4.0);
  in.queue_pressure_weight = pressured ? rng.uniform(0.5, 5.0) : 0.0;
  return in;
}

/// FNV-1a over 64-bit words.
void mix(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

/// Hash of one result: its sorted (task, slot) pairs and both flags.
std::uint64_t result_digest(const ScheduleResult& r) {
  std::vector<std::pair<TaskId, SlotIndex>> pairs(r.assignment.begin(),
                                                  r.assignment.end());
  std::sort(pairs.begin(), pairs.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  mix(h, pairs.size());
  for (const auto& [task, slot] : pairs) {
    mix(h, static_cast<std::uint64_t>(task));
    mix(h, static_cast<std::uint64_t>(slot));
  }
  mix(h, r.count_relaxed ? 1 : 0);
  mix(h, r.capacity_relaxed ? 1 : 0);
  return h;
}

std::uint64_t algorithm_digest(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t seed = 1; seed <= kInputs; ++seed) {
    auto alg = AlgorithmRegistry::instance().create(name);
    mix(h, result_digest(alg->schedule(golden_input(seed))));
  }
  return h;
}

const std::map<std::string, std::uint64_t> kGolden = {
    {"traffic-aware", 0x3529f0f3e71b61b5ULL},
    {"round-robin", 0x81c2b31c06f33ba2ULL},
    {"tstorm-initial", 0x598636df1d72a2f0ULL},
    {"aniello-offline", 0xabb38e394183ce13ULL},
    {"aniello-online", 0x8b0370efd4d5c4c9ULL},
    {"local-search", 0x591ef2ba29e1bcaaULL},
    {"rstorm", 0xaf6f2f339a7dff7dULL},
};

TEST(GoldenPlacement, InputFamilyCoversTheConstraintCases) {
  int unconstrained = 0, failed_below_top = 0, occupied = 0, pressured = 0;
  for (std::uint64_t seed = 1; seed <= kInputs; ++seed) {
    const auto in = golden_input(seed);
    if (in.nodes.empty()) ++unconstrained;
    for (const auto& n : in.nodes) {
      if (n.capacity[kCpuMhz] == 0 && n.node + 1 < static_cast<NodeId>(
                                                       in.nodes.size())) {
        ++failed_below_top;
      }
    }
    if (!in.occupied_slots.empty()) ++occupied;
    if (in.queue_pressure_weight > 0) ++pressured;
  }
  EXPECT_GT(unconstrained, 100);
  EXPECT_GT(failed_below_top, 100);
  EXPECT_GT(occupied, 100);
  EXPECT_GT(pressured, 100);
}

TEST(GoldenPlacement, EveryRegisteredSchedulerMatchesItsDigest) {
  const auto names = AlgorithmRegistry::instance().names();
  EXPECT_EQ(names.size(), kGolden.size());
  for (const auto& name : names) {
    const std::uint64_t got = algorithm_digest(name);
    auto want = kGolden.find(name);
    ASSERT_NE(want, kGolden.end()) << name << " has no golden digest";
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, want->second) << name << " digest is now " << hex;
  }
}

TEST(GoldenPlacement, PlacementIgnoresSlotListOrder) {
  // Every scheduler breaks ties by node or slot id, never by where a slot
  // sits in the input list.
  for (const auto& name : AlgorithmRegistry::instance().names()) {
    for (std::uint64_t seed = 1; seed <= kInputs; ++seed) {
      const auto in = golden_input(seed);
      auto shuffled = in;
      std::mt19937 g(static_cast<unsigned>(seed));
      std::shuffle(shuffled.slots.begin(), shuffled.slots.end(), g);
      auto alg = AlgorithmRegistry::instance().create(name);
      ASSERT_EQ(result_digest(alg->schedule(in)),
                result_digest(alg->schedule(shuffled)))
          << name << " on input " << seed;
    }
  }
}

}  // namespace
}  // namespace tstorm::sched
