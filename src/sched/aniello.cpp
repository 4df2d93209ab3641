#include "sched/aniello.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace tstorm::sched {
namespace {

struct WeightedEdge {
  TaskId a;
  TaskId b;
  double w;
};

/// Phase 1 of both DEBS'13 schedulers: partition one topology's executors
/// into `n_workers` groups, greedily co-locating the heaviest edges first,
/// subject to a per-group size cap of ceil(Ne / n_workers).
std::vector<std::vector<TaskId>> partition_executors(
    const std::vector<TaskId>& tasks, const std::vector<WeightedEdge>& edges,
    int n_workers) {
  std::vector<std::vector<TaskId>> groups(
      static_cast<std::size_t>(std::max(1, n_workers)));
  const int cap = static_cast<int>(
      std::ceil(static_cast<double>(tasks.size()) / groups.size()));
  std::unordered_map<TaskId, int> group_of;

  auto sorted = edges;
  std::sort(sorted.begin(), sorted.end(),
            [](const WeightedEdge& x, const WeightedEdge& y) {
              if (x.w != y.w) return x.w > y.w;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });

  const auto least_loaded = [&]() -> int {  // lowest index on ties
    return static_cast<int>(
        std::min_element(groups.begin(), groups.end(),
                         [](const auto& a, const auto& b) {
                           return a.size() < b.size();
                         }) -
        groups.begin());
  };
  const auto place = [&](TaskId t, int g) {
    groups[static_cast<std::size_t>(g)].push_back(t);
    group_of[t] = g;
  };

  for (const auto& e : sorted) {
    const bool ha = group_of.contains(e.a);
    const bool hb = group_of.contains(e.b);
    if (ha && hb) continue;
    if (!ha && !hb) {
      int g = least_loaded();
      if (groups[static_cast<std::size_t>(g)].size() + 2 <=
          static_cast<std::size_t>(cap)) {
        place(e.a, g);
        place(e.b, g);
      } else {
        place(e.a, least_loaded());
        place(e.b, least_loaded());
      }
      continue;
    }
    const TaskId placed = ha ? e.a : e.b;
    const TaskId loose = ha ? e.b : e.a;
    const int g = group_of[placed];
    if (groups[static_cast<std::size_t>(g)].size() <
        static_cast<std::size_t>(cap)) {
      place(loose, g);
    } else {
      place(loose, least_loaded());
    }
  }
  for (TaskId t : tasks) {
    if (!group_of.contains(t)) place(t, least_loaded());
  }
  return groups;
}

/// Phase 2: place worker groups onto free slots, heaviest inter-group
/// traffic first, co-locating groups on the same node when a free slot
/// exists there.
ScheduleResult place_groups(const SchedulerInput& in,
                            const std::vector<std::vector<TaskId>>& groups,
                            const std::vector<WeightedEdge>& edges) {
  ScheduleResult result;
  const auto occupied = occupied_slot_set(in);
  // Free slots grouped per node, in (node, port) order.
  std::map<NodeId, std::vector<SlotIndex>> free_slots;
  {
    auto slots = in.slots;
    std::sort(slots.begin(), slots.end(),
              [](const SlotSpec& a, const SlotSpec& b) {
                if (a.node != b.node) return a.node < b.node;
                return a.port < b.port;
              });
    for (const auto& s : slots) {
      if (!occupied.contains(s.slot)) free_slots[s.node].push_back(s.slot);
    }
  }

  std::unordered_map<TaskId, int> group_of;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (TaskId t : groups[g]) group_of[t] = static_cast<int>(g);
  }
  // Inter-group weights.
  std::map<std::pair<int, int>, double> gw;
  for (const auto& e : edges) {
    auto ia = group_of.find(e.a);
    auto ib = group_of.find(e.b);
    if (ia == group_of.end() || ib == group_of.end()) continue;
    if (ia->second == ib->second) continue;
    auto key = std::minmax(ia->second, ib->second);
    gw[{key.first, key.second}] += e.w;
  }
  std::vector<std::pair<std::pair<int, int>, double>> pairs(gw.begin(),
                                                            gw.end());
  std::sort(pairs.begin(), pairs.end(), [](const auto& x, const auto& y) {
    if (x.second != y.second) return x.second > y.second;
    return x.first < y.first;
  });

  // (node, slot) of each group once placed.
  std::vector<std::pair<NodeId, SlotIndex>> placed(groups.size(),
                                                   {-1, kUnassigned});

  const auto take_slot_on = [&](NodeId preferred) -> std::pair<NodeId, SlotIndex> {
    auto it = preferred >= 0 ? free_slots.find(preferred) : free_slots.end();
    if (it == free_slots.end() || it->second.empty()) {
      // Node with the most free slots (spreads load), lowest id on ties.
      it = std::max_element(
          free_slots.begin(), free_slots.end(), [](const auto& a, const auto& b) {
            return a.second.size() < b.second.size();
          });
    }
    if (it == free_slots.end() || it->second.empty()) return {-1, kUnassigned};
    const SlotIndex s = it->second.front();
    it->second.erase(it->second.begin());
    return {it->first, s};
  };
  const auto ensure_placed = [&](std::size_t g, NodeId preferred) {
    if (placed[g].second == kUnassigned) placed[g] = take_slot_on(preferred);
  };

  // Heaviest pairs first: an unplaced group joins its placed partner's
  // node; when neither is placed, the first picks freely.
  for (const auto& [key, w] : pairs) {
    const auto ga = static_cast<std::size_t>(key.first);
    const auto gb = static_cast<std::size_t>(key.second);
    if (placed[ga].second == kUnassigned &&
        placed[gb].second != kUnassigned) {
      ensure_placed(ga, placed[gb].first);
    } else {
      ensure_placed(ga, -1);
      ensure_placed(gb, placed[ga].first);
    }
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (!groups[g].empty()) ensure_placed(g, -1);
    if (placed[g].second == kUnassigned) continue;
    for (TaskId t : groups[g]) result.assignment[t] = placed[g].second;
  }
  return result;
}

ScheduleResult run_two_phase(const SchedulerInput& in,
                             const std::vector<WeightedEdge>& edges) {
  // Partition per topology, then place all groups together.
  std::map<TopologyId, std::vector<TaskId>> tasks_by_topo;
  std::unordered_map<TaskId, TopologyId> topo_of;
  for (const auto& e : in.executors) {
    tasks_by_topo[e.topology].push_back(e.task);
    topo_of[e.task] = e.topology;
  }
  std::map<TopologyId, std::vector<WeightedEdge>> edges_by_topo;
  for (const auto& e : edges) {
    auto a = topo_of.find(e.a);
    auto b = topo_of.find(e.b);
    if (a != topo_of.end() && b != topo_of.end() && a->second == b->second) {
      edges_by_topo[a->second].push_back(e);
    }
  }

  std::vector<std::vector<TaskId>> all_groups;
  for (auto& [topo, tasks] : tasks_by_topo) {
    auto groups = partition_executors(tasks, edges_by_topo[topo],
                                      requested_workers(in, topo));
    for (auto& g : groups) {
      if (!g.empty()) all_groups.push_back(std::move(g));
    }
  }
  ScheduleResult result = place_groups(in, all_groups, edges);
  audit_capacity(in, result);  // capacity-blind: flag overcommit post hoc
  return result;
}

}  // namespace

ScheduleResult AnielloOfflineScheduler::schedule(const SchedulerInput& in) {
  // Offline: unit weights from the topology graph only.
  std::vector<WeightedEdge> edges;
  edges.reserve(in.topology_edges.size());
  for (const auto& [a, b] : in.topology_edges) {
    edges.push_back({a, b, 1.0});
  }
  return run_two_phase(in, edges);
}

ScheduleResult AnielloOnlineScheduler::schedule(const SchedulerInput& in) {
  // Online: weights are the measured traffic rates.
  std::vector<WeightedEdge> edges;
  edges.reserve(in.traffic.size());
  for (const auto& t : in.traffic) {
    if (t.rate > 0) edges.push_back({t.src, t.dst, t.rate});
  }
  return run_two_phase(in, edges);
}

}  // namespace tstorm::sched
