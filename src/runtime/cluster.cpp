#include "runtime/cluster.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "sched/round_robin.h"

namespace tstorm::runtime {

namespace {

double clamp_min(double v, double lo, const char* what) {
  (void)what;
  assert(v >= lo && "ClusterConfig: value out of range");
  return std::max(v, lo);
}

int clamp_min_int(int v, int lo, const char* what) {
  (void)what;
  assert(v >= lo && "ClusterConfig: value out of range");
  return std::max(v, lo);
}

double clamp_range(double v, double lo, double hi, const char* what) {
  (void)what;
  assert(v >= lo && v <= hi && "ClusterConfig: value out of range");
  return std::min(std::max(v, lo), hi);
}

}  // namespace

ClusterConfig validated(ClusterConfig config) {
  config.num_nodes = clamp_min_int(config.num_nodes, 1, "num_nodes");
  config.slots_per_node =
      clamp_min_int(config.slots_per_node, 1, "slots_per_node");
  config.cores_per_node =
      clamp_min_int(config.cores_per_node, 1, "cores_per_node");
  config.per_core_mhz = clamp_min(config.per_core_mhz, 1.0, "per_core_mhz");
  config.memory_mib_per_node =
      clamp_min(config.memory_mib_per_node, 1.0, "memory_mib_per_node");
  config.network_mbps_per_node =
      clamp_min(config.network_mbps_per_node, 1.0, "network_mbps_per_node");
  if (!config.node_groups.empty()) {
    // Groups are the compact fleet description; expand them to the flat
    // per-node list (which they override — debug builds flag the clash).
    assert(config.nodes.empty() &&
           "ClusterConfig: node_groups and nodes are mutually exclusive");
    config.nodes.clear();
    for (auto& group : config.node_groups) {
      group.count = clamp_min_int(group.count, 0, "NodeGroup::count");
      for (int i = 0; i < group.count; ++i) config.nodes.push_back(group.spec);
    }
  }
  for (auto& spec : config.nodes) {
    spec.slots = clamp_min_int(spec.slots, 1, "NodeSpec::slots");
    spec.cores = clamp_min_int(spec.cores, 1, "NodeSpec::cores");
    spec.per_core_mhz =
        clamp_min(spec.per_core_mhz, 1.0, "NodeSpec::per_core_mhz");
    spec.memory_mib = clamp_min(spec.memory_mib, 1.0, "NodeSpec::memory_mib");
    spec.network_mbps =
        clamp_min(spec.network_mbps, 1.0, "NodeSpec::network_mbps");
  }
  config.network = net::validated(config.network);
  config.worker_start_delay =
      clamp_min(config.worker_start_delay, 0.0, "worker_start_delay");
  config.supervisor_sync_period =
      clamp_min(config.supervisor_sync_period, sim::PeriodicTask::kMinPeriod,
                "supervisor_sync_period");
  config.tuple_timeout = clamp_min(config.tuple_timeout,
                                   sim::PeriodicTask::kMinPeriod,
                                   "tuple_timeout");
  config.max_replays = clamp_min_int(config.max_replays, 0, "max_replays");
  config.replay_backoff_base =
      clamp_min(config.replay_backoff_base, 0.0, "replay_backoff_base");
  config.replay_backoff_max = clamp_min(
      config.replay_backoff_max, config.replay_backoff_base,
      "replay_backoff_max");
  config.replay_backoff_jitter =
      clamp_min(config.replay_backoff_jitter, 0.0, "replay_backoff_jitter");
  config.late_ack_grace_factor =
      clamp_min(config.late_ack_grace_factor, 0.0, "late_ack_grace_factor");
  config.heartbeat_period =
      clamp_min(config.heartbeat_period, sim::PeriodicTask::kMinPeriod,
                "heartbeat_period");
  config.node_timeout = clamp_min(config.node_timeout,
                                  sim::PeriodicTask::kMinPeriod,
                                  "node_timeout");
  config.monitor_period =
      clamp_min(config.monitor_period, sim::PeriodicTask::kMinPeriod,
                "monitor_period");
  config.shutdown_delay =
      clamp_min(config.shutdown_delay, 0.0, "shutdown_delay");
  config.spout_halt_delay =
      clamp_min(config.spout_halt_delay, 0.0, "spout_halt_delay");
  config.flow.queue_capacity =
      clamp_min_int(config.flow.queue_capacity, 1, "flow.queue_capacity");
  config.flow.high_watermark = clamp_range(config.flow.high_watermark, 0.0,
                                           1.0, "flow.high_watermark");
  // The hysteresis band requires low <= high (strictly below in sane
  // configs; equal degenerates to a single threshold but stays correct).
  config.flow.low_watermark =
      clamp_range(config.flow.low_watermark, 0.0, config.flow.high_watermark,
                  "flow.low_watermark");
  config.flow.throttle_refresh_period =
      clamp_min(config.flow.throttle_refresh_period,
                sim::PeriodicTask::kMinPeriod, "flow.throttle_refresh_period");
  config.flow.shed_probability = clamp_range(
      config.flow.shed_probability, 0.0, 1.0, "flow.shed_probability");
  config.obs.tuple_sample_rate = clamp_range(
      config.obs.tuple_sample_rate, 0.0, 1.0, "obs.tuple_sample_rate");
  config.state.checkpoint_interval =
      clamp_min(config.state.checkpoint_interval,
                sim::PeriodicTask::kMinPeriod, "state.checkpoint_interval");
  if (config.state.checkpoint_timeout <= 0) {
    config.state.checkpoint_timeout = 3 * config.state.checkpoint_interval;
  }
  config.state.checkpoint_timeout =
      clamp_min(config.state.checkpoint_timeout,
                config.state.checkpoint_interval, "state.checkpoint_timeout");
  config.state.store_write_latency = clamp_min(
      config.state.store_write_latency, 0.0, "state.store_write_latency");
  config.state.store_read_latency = clamp_min(
      config.state.store_read_latency, 0.0, "state.store_read_latency");
  config.state.store_read_bandwidth = clamp_min(
      config.state.store_read_bandwidth, 1.0, "state.store_read_bandwidth");
  config.state.barrier_cost_mc =
      clamp_min(config.state.barrier_cost_mc, 0.0, "state.barrier_cost_mc");
  config.state.dedup_horizon_factor =
      clamp_min(config.state.dedup_horizon_factor, 0.0,
                "state.dedup_horizon_factor");
  return config;
}

Cluster::Cluster(sim::Simulation& sim, ClusterConfig config)
    : sim_(sim),
      config_(validated(std::move(config))),
      rng_(config_.seed),
      network_(sim, config_.network,
               // One extra endpoint when state is enabled: the durable
               // storage pseudo-node snapshot writes travel to.
               (config_.nodes.empty() ? config_.num_nodes
                                      : static_cast<int>(
                                            config_.nodes.size())) +
                   (config_.state.enabled ? 1 : 0),
               // Dedicated fault-model substream derived from the cluster
               // seed: enabling network faults never perturbs the main RNG
               // stream (edge ids, workloads).
               config_.seed ^ 0x6e65742d6661756cULL),
      provenance_(config_.obs.provenance_capacity),
      tuple_trace_(
          obs::TupleTraceConfig{config_.obs.tuple_sample_rate,
                                config_.obs.tuple_trace_capacity,
                                /*max_spans_per_root=*/512},
          // Dedicated sampling substream: tracing never perturbs the main
          // RNG stream (edge ids, workloads).
          config_.seed ^ 0x6f62732d74726163ULL),
      flow_(sim, config_.flow, coordination_, trace_, config_.seed),
      tracker_(*this, recorder_),
      nimbus_(*this),
      default_initial_(std::make_unique<sched::RoundRobinScheduler>()) {
  // Heterogeneous override: per-node hardware specs.
  std::vector<NodeSpec> specs;
  if (!config_.nodes.empty()) {
    specs = config_.nodes;
    config_.num_nodes = static_cast<int>(specs.size());
  } else {
    specs.assign(static_cast<std::size_t>(config_.num_nodes),
                 NodeSpec{config_.slots_per_node, config_.cores_per_node,
                          config_.per_core_mhz, config_.memory_mib_per_node,
                          config_.network_mbps_per_node});
  }
  nodes_.reserve(static_cast<std::size_t>(config_.num_nodes));
  slot_offsets_.reserve(static_cast<std::size_t>(config_.num_nodes) + 1);
  slot_offsets_.push_back(0);
  for (int i = 0; i < config_.num_nodes; ++i) {
    const auto& spec = specs[static_cast<std::size_t>(i)];
    nodes_.emplace_back(i, spec.cores, spec.per_core_mhz, spec.memory_mib,
                        spec.network_mbps);
    slot_offsets_.push_back(slot_offsets_.back() + spec.slots);
  }
  supervisors_.reserve(static_cast<std::size_t>(config_.num_nodes));
  for (int i = 0; i < config_.num_nodes; ++i) {
    supervisors_.push_back(std::make_unique<Supervisor>(*this, i));
    // Stagger sync phases across the period, as real daemons drift.
    const double phase = config_.supervisor_sync_period *
                         (static_cast<double>(i) + 0.5) /
                         static_cast<double>(config_.num_nodes);
    supervisors_.back()->start(phase);
  }
  // Self-healing loop: supervisors heartbeat unconditionally; the Nimbus
  // monitor that acts on them is opt-in.
  if (config_.failure_detection) nimbus_.start_failure_detector();
  // Backpressure spout pauser: the quiet variant of pause_spouts — the
  // refresher re-arms it every throttle_refresh_period, so tracing each
  // call (as pause_spouts does with kSpoutsHalted) would flood the ring.
  // Throttle transitions are traced as kBackpressureOn/Off instead.
  flow_.set_spout_pauser([this](sched::TopologyId topo, sim::Time until) {
    for (const auto& instances : router_) {
      for (Executor* e : instances) {
        if (e->info().topology == topo && e->info().is_spout()) {
          e->pause_spout_until(until);
        }
      }
    }
  });
  // Stateful operators: checkpoint coordinator + its tick. The durable
  // service sits on the pseudo-node appended after the workers (the +1 in
  // network_'s construction above), so snapshot writes traverse the fault
  // model like any inter-node message.
  if (config_.state.enabled) {
    storage_node_ = config_.num_nodes;
    state::CheckpointCoordinator::Callbacks callbacks;
    callbacks.inject_barriers = [this](int topo, std::uint64_t ckpt) {
      inject_barriers(topo, ckpt);
    };
    callbacks.on_complete = [this](int topo, std::uint64_t ckpt,
                                   double duration, std::uint64_t bytes) {
      on_checkpoint_complete(topo, ckpt, duration, bytes);
    };
    callbacks.on_abort = [this](int topo, std::uint64_t ckpt) {
      std::string detail = "round " + std::to_string(ckpt) + ", awaiting";
      for (int task : checkpoints_->awaiting_tasks(topo)) {
        detail += " " + std::to_string(task);
      }
      trace_.record({sim_.now(), trace::EventKind::kCheckpointAborted, topo,
                     -1, -1, 0, std::move(detail)});
    };
    checkpoints_ = std::make_unique<state::CheckpointCoordinator>(
        std::move(callbacks), config_.state.checkpoint_timeout);
    checkpoint_tick_ = std::make_unique<sim::PeriodicTask>(
        sim_, config_.state.checkpoint_interval,
        sim::InlineFn([this] { checkpoints_->tick(sim_.now()); }));
    checkpoint_tick_->start(config_.state.checkpoint_interval);
  }
}

const char* to_string(DropCause cause) {
  switch (cause) {
    case DropCause::kDeadInstance:
      return "dead-instance";
    case DropCause::kNetworkLoss:
      return "network-loss";
    case DropCause::kShutdownDrain:
      return "shutdown-drain";
    case DropCause::kLoadShed:
      return "load-shed";
    case DropCause::kStateDedup:
      return "state-dedup";
  }
  return "?";
}

Cluster::~Cluster() = default;

WorkerNode& Cluster::node(sched::NodeId id) {
  return nodes_.at(static_cast<std::size_t>(id));
}

Supervisor& Cluster::supervisor(sched::NodeId id) {
  return *supervisors_.at(static_cast<std::size_t>(id));
}

int Cluster::total_slots() const { return slot_offsets_.back(); }

int Cluster::slots_on_node(sched::NodeId node) const {
  return slot_offsets_.at(static_cast<std::size_t>(node) + 1) -
         slot_offsets_.at(static_cast<std::size_t>(node));
}

sched::SlotIndex Cluster::slot_index(sched::NodeId node, int port) const {
  assert(node >= 0 && node < config_.num_nodes);
  assert(port >= 0 && port < slots_on_node(node));
  return slot_offsets_[static_cast<std::size_t>(node)] + port;
}

sched::NodeId Cluster::slot_node(sched::SlotIndex slot) const {
  // First offset strictly greater than slot, minus one.
  const auto it = std::upper_bound(slot_offsets_.begin(),
                                   slot_offsets_.end(), slot);
  return static_cast<sched::NodeId>(it - slot_offsets_.begin()) - 1;
}

int Cluster::slot_port(sched::SlotIndex slot) const {
  return slot - slot_offsets_[static_cast<std::size_t>(slot_node(slot))];
}

std::vector<sched::SlotSpec> Cluster::all_slots() const {
  std::vector<sched::SlotSpec> out;
  out.reserve(static_cast<std::size_t>(total_slots()));
  for (int n = 0; n < config_.num_nodes; ++n) {
    for (int p = 0; p < slots_on_node(n); ++p) {
      out.push_back({slot_index(n, p), n, p});
    }
  }
  return out;
}

sched::TopologyId Cluster::submit(topo::Topology topology,
                                  sched::ISchedulingAlgorithm*
                                      initial_algorithm) {
  const auto id = static_cast<sched::TopologyId>(topologies_.size());
  topologies_.push_back(std::move(topology));
  topology_ids_.push_back(id);
  const topo::Topology& t = topologies_.back();

  // Task ranges: this topology's tasks are appended here and nowhere else.
  const std::size_t first_task = tasks_.size();
  assert(static_cast<std::size_t>(task_offsets_.back()) == first_task);
  std::vector<sched::TaskId> ackers;
  for (const auto& component : t.components()) {
    for (int i = 0; i < component.parallelism; ++i) {
      const auto task = static_cast<sched::TaskId>(tasks_.size());
      tasks_.push_back(TaskInfo{task, id, &component, i});
      if (component.kind == topo::ComponentKind::kAcker) {
        ackers.push_back(task);
      }
    }
  }
  task_offsets_.push_back(static_cast<sched::TaskId>(tasks_.size()));
  acker_tasks_[id] = std::move(ackers);

  if (checkpoints_ != nullptr) {
    std::vector<int> stateful;
    for (std::size_t i = first_task; i < tasks_.size(); ++i) {
      const TaskInfo& info = tasks_[i];
      if (info.component->stateful &&
          info.component->kind == topo::ComponentKind::kBolt) {
        stateful.push_back(info.task);
      }
    }
    checkpoints_->register_topology(id, std::move(stateful));
  }

  trace_.record({sim_.now(), trace::EventKind::kTopologySubmitted, id, -1,
                 -1, 0,
                 t.name() + ", " + std::to_string(t.total_executors()) +
                     " executors"});
  nimbus_.schedule_initial(
      id, initial_algorithm != nullptr ? *initial_algorithm
                                       : *default_initial_);
  return id;
}

void Cluster::kill_topology(sched::TopologyId topo) {
  if (checkpoints_ != nullptr) checkpoints_->deregister_topology(topo);
  coordination_.remove(topo);
  trace_.record({sim_.now(), trace::EventKind::kTopologyKilled, topo, -1,
                 -1, 0, {}});
}

const topo::Topology& Cluster::topology(sched::TopologyId topo) const {
  return topologies_.at(static_cast<std::size_t>(topo));
}

std::vector<sched::TopologyId> Cluster::topology_ids() const {
  return topology_ids_;
}

const TaskInfo& Cluster::task_info(sched::TaskId task) const {
  return tasks_.at(static_cast<std::size_t>(task));
}

std::vector<sched::TaskId> Cluster::tasks_of(sched::TopologyId topo) const {
  std::vector<sched::TaskId> out;
  if (topo < 0 || static_cast<std::size_t>(topo) >= topologies_.size()) {
    return out;
  }
  const auto i = static_cast<std::size_t>(topo);
  out.resize(
      static_cast<std::size_t>(task_offsets_[i + 1] - task_offsets_[i]));
  std::iota(out.begin(), out.end(), task_offsets_[i]);
  return out;
}

std::vector<sched::TaskId> Cluster::tasks_of_component(
    sched::TopologyId topo, const std::string& component) const {
  std::vector<sched::TaskId> out;
  if (topo < 0 || static_cast<std::size_t>(topo) >= topologies_.size()) {
    return out;
  }
  // The topology's range holds each component's tasks in turn.
  sched::TaskId task = task_offsets_[static_cast<std::size_t>(topo)];
  for (const auto& c : topology(topo).components()) {
    if (c.name == component) {
      for (int i = 0; i < c.parallelism; ++i) out.push_back(task + i);
    }
    task += c.parallelism;
  }
  return out;
}

const std::vector<sched::TaskId>& Cluster::acker_tasks(
    sched::TopologyId topo) const {
  static const std::vector<sched::TaskId> kEmpty;
  auto it = acker_tasks_.find(topo);
  return it == acker_tasks_.end() ? kEmpty : it->second;
}

sched::SchedulerInput Cluster::scheduler_input(
    const std::vector<sched::TopologyId>& topos) const {
  sched::SchedulerInput input;
  // Failed nodes contribute no slots (and zero capacity, defensively).
  // Nodes the failure detector believes dead are withheld too — including
  // false positives, whose healthy workers will be retired by their own
  // supervisor once the reassignment publishes.
  const auto usable = [this](sched::NodeId n) {
    return nodes_[static_cast<std::size_t>(n)].available() &&
           nimbus_.node_believed_alive(n);
  };
  for (const auto& slot : all_slots()) {
    if (usable(slot.node)) input.slots.push_back(slot);
  }
  input.nodes.reserve(static_cast<std::size_t>(config_.num_nodes));
  for (const auto& node : nodes_) {
    // A dead node keeps its entry with zero capacity (and no slots above).
    input.nodes.push_back({node.id(), usable(node.id())
                                          ? node.capacity_vector()
                                          : sched::ResourceVector{}});
  }

  std::unordered_set<sched::TopologyId> included(topos.begin(), topos.end());
  for (sched::TopologyId id : topos) {
    const topo::Topology& t = topology(id);
    input.topologies.push_back({id, t.num_workers()});
    for (sched::TaskId task : tasks_of(id)) {
      input.executors.push_back({task, id});
    }
    // Task-level topology edges (producer tasks x consumer tasks).
    for (const auto& component : t.components()) {
      for (const auto& sub : component.inputs) {
        const auto srcs = tasks_of_component(id, sub.source);
        const auto dsts = tasks_of_component(id, component.name);
        for (auto s : srcs) {
          for (auto d : dsts) input.topology_edges.emplace_back(s, d);
        }
      }
    }
  }

  // Slots already used by topologies outside this scheduling run.
  for (const auto& [other, record] : coordination_.all()) {
    if (included.contains(other)) continue;
    for (const auto& [task, slot] : record.placement) {
      input.occupied_slots.push_back(slot);
    }
  }
  std::sort(input.occupied_slots.begin(), input.occupied_slots.end());
  input.occupied_slots.erase(
      std::unique(input.occupied_slots.begin(), input.occupied_slots.end()),
      input.occupied_slots.end());
  return input;
}

void Cluster::register_executor(Executor* executor) {
  const auto task = static_cast<std::size_t>(executor->task());
  if (task >= router_.size()) router_.resize(task + 1);
  router_[task].push_back(executor);
}

void Cluster::unregister_executor(Executor* executor) {
  const auto task = static_cast<std::size_t>(executor->task());
  if (task >= router_.size()) return;
  std::erase(router_[task], executor);
}

Executor* Cluster::resolve(sched::TaskId task,
                           sched::AssignmentVersion sender_version) const {
  const auto t = static_cast<std::size_t>(task);
  if (t >= router_.size() || router_[t].empty()) return nullptr;
  // Dispatcher rule (section IV-D): old senders reach old instances, new
  // senders reach new instances. Concretely: newest instance not newer
  // than the sender; if none, the oldest newer instance.
  Executor* best_le = nullptr;
  Executor* best_gt = nullptr;
  for (Executor* e : router_[t]) {
    const auto v = e->worker().version();
    if (v <= sender_version) {
      if (best_le == nullptr || v > best_le->worker().version()) best_le = e;
    } else {
      if (best_gt == nullptr || v < best_gt->worker().version()) best_gt = e;
    }
  }
  return best_le != nullptr ? best_le : best_gt;
}

bool Cluster::is_current_instance(const Executor& e) const {
  return resolve(e.task(),
                 std::numeric_limits<sched::AssignmentVersion>::max()) == &e;
}

void Cluster::send(Executor& from, sched::TaskId dst, Envelope env) {
  env.src = from.task();
  env.dst = dst;
  env.version = from.worker().version();

  Executor* target = resolve(dst, env.version);
  if (target == nullptr) {
    note_drop(DropCause::kDeadInstance);
    return;
  }
  net::LinkType type;
  if (&target->worker() == &from.worker()) {
    type = net::LinkType::kIntraProcess;
  } else if (target->node_id() == from.node_id()) {
    type = net::LinkType::kInterProcess;
  } else {
    type = net::LinkType::kInterNode;
  }
  const auto src_node = from.node_id();
  const auto dst_node = target->node_id();
  const auto bytes = env.bytes();
  const auto version = env.version;

  // Tuple tracing: stamp the network-hop start on envelopes of sampled
  // roots (acks included — acker traffic is part of the causal tree). The
  // receiving executor closes the hop span and starts the queue wait.
  if (tuple_trace_.enabled() && env.root_id != 0 &&
      tuple_trace_.sampled(env.root_id)) {
    env.trace_t0 = sim_.now();
  }

  // Crowding penalty: a message crossing a process boundary is handled by
  // sender/receiver threads that contend with every other thread on their
  // nodes. Intra-process handoffs skip this entirely — the benefit of
  // T-Storm's worker consolidation.
  double extra = 0.0;
  if (type != net::LinkType::kIntraProcess) {
    const double overhead = config_.worker_overhead_threads;
    extra = config_.crowd_latency_coeff *
            (node(src_node).crowding(overhead) +
             node(dst_node).crowding(overhead));
  }

  // Park the envelope and capture only its handle: the delivery closure
  // must fit InlineFn's inline buffer for the send path to stay
  // allocation-free (the envelope itself is 56 bytes).
  const std::uint32_t handle = stash_envelope(std::move(env));
  const bool delivered =
      network_.send(src_node, dst_node, type, bytes,
                    [this, dst, version, handle] {
                      Envelope e = take_envelope(handle);
                      Executor* t = resolve(dst, version);
                      if (t == nullptr) {
                        note_drop(DropCause::kDeadInstance);
                        return;
                      }
                      t->deliver(std::move(e));
                    },
                    extra);
  if (!delivered) {
    // Lost on the wire: reclaim the parked envelope; a lost data tuple
    // surfaces as a tracker timeout (and replay) at its spout.
    take_envelope(handle);
    note_drop(DropCause::kNetworkLoss);
  }
}

std::uint32_t Cluster::stash_envelope(Envelope env) {
  if (!in_flight_free_.empty()) {
    const std::uint32_t handle = in_flight_free_.back();
    in_flight_free_.pop_back();
    in_flight_[handle] = std::move(env);
    return handle;
  }
  in_flight_.push_back(std::move(env));
  return static_cast<std::uint32_t>(in_flight_.size() - 1);
}

Envelope Cluster::take_envelope(std::uint32_t handle) {
  Envelope env = std::move(in_flight_[handle]);
  in_flight_free_.push_back(handle);
  return env;
}

bool Cluster::deliver_control(sched::TaskId dst, Envelope env) {
  Executor* t =
      resolve(dst, std::numeric_limits<sched::AssignmentVersion>::max());
  if (t == nullptr) return false;
  env.dst = dst;
  t->deliver(std::move(env));
  return true;
}

std::vector<Executor*> Cluster::executors_on_node(sched::NodeId node) const {
  std::vector<Executor*> out;
  for (const auto& instances : router_) {
    for (Executor* e : instances) {
      if (e->node_id() == node) out.push_back(e);
    }
  }
  return out;
}

std::vector<Executor*> Cluster::instances_of(sched::TaskId task) const {
  const auto t = static_cast<std::size_t>(task);
  return t < router_.size() ? router_[t] : std::vector<Executor*>{};
}

std::vector<Executor*> Cluster::registered_executors() const {
  std::vector<Executor*> out;
  for (const auto& instances : router_) {
    out.insert(out.end(), instances.begin(), instances.end());
  }
  return out;
}

int Cluster::nodes_in_use() const {
  std::unordered_set<sched::NodeId> nodes;
  for (const auto& instances : router_) {
    for (Executor* e : instances) nodes.insert(e->node_id());
  }
  return static_cast<int>(nodes.size());
}

int Cluster::slots_in_use() const {
  std::unordered_set<sched::SlotIndex> slots;
  for (const auto& instances : router_) {
    for (Executor* e : instances) slots.insert(e->worker().slot());
  }
  return static_cast<int>(slots.size());
}

void Cluster::pause_spouts(sched::TopologyId topo, sim::Time until) {
  trace_.record({sim_.now(), trace::EventKind::kSpoutsHalted, topo, -1, -1,
                 0, "until t=" + std::to_string(until)});
  for (const auto& instances : router_) {
    for (Executor* e : instances) {
      if (e->info().topology == topo && e->info().is_spout()) {
        e->pause_spout_until(until);
      }
    }
  }
}

bool Cluster::kill_worker(sched::NodeId node, int port) {
  return supervisors_.at(static_cast<std::size_t>(node))->kill_worker(port);
}

bool Cluster::fail_node(sched::NodeId node) {
  auto& n = nodes_.at(static_cast<std::size_t>(node));
  if (!n.available()) return false;
  n.set_available(false);
  supervisors_.at(static_cast<std::size_t>(node))->set_active(false);
  trace_.record({sim_.now(), trace::EventKind::kNodeFailed, -1, node, -1, 0,
                 {}});
  return true;
}

bool Cluster::recover_node(sched::NodeId node) {
  auto& n = nodes_.at(static_cast<std::size_t>(node));
  if (n.available()) return false;
  n.set_available(true);
  supervisors_.at(static_cast<std::size_t>(node))->set_active(true);
  trace_.record({sim_.now(), trace::EventKind::kNodeRecovered, -1, node, -1,
                 0, {}});
  return true;
}

bool Cluster::node_available(sched::NodeId node) const {
  return nodes_.at(static_cast<std::size_t>(node)).available();
}

std::uint64_t Cluster::dropped_messages() const {
  return dropped_by_cause_[0] + dropped_by_cause_[1] + dropped_by_cause_[2] +
         dropped_by_cause_[3] + dropped_by_cause_[4];
}

std::uint64_t Cluster::dropped_by(DropCause cause) const {
  return dropped_by_cause_[static_cast<int>(cause)];
}

void Cluster::note_drop(DropCause cause) {
  ++dropped_by_cause_[static_cast<int>(cause)];
  recorder_.record_drop(sim_.now());
}

std::vector<metrics::FlowGaugeRow> Cluster::flow_gauges() const {
  std::vector<metrics::FlowGaugeRow> rows;
  for (const auto& instances : router_) {
    for (Executor* e : instances) {
      rows.push_back({e->task(), e->node_id(), e->data_queue_depth(),
                      flow_.shed_for_task(e->task())});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const metrics::FlowGaugeRow& a, const metrics::FlowGaugeRow& b) {
              return a.task != b.task ? a.task < b.task : a.node < b.node;
            });
  return rows;
}

void Cluster::inject_barriers(sched::TopologyId topo, std::uint64_t ckpt) {
  for (const auto& info : tasks_) {
    if (info.topology != topo || !info.is_spout()) continue;
    Envelope barrier;
    barrier.kind = MsgKind::kBarrier;
    barrier.root_id = ckpt;
    // Control-plane delivery: the coordinator reaches spouts the way the
    // tracker reaches them for replays. A dead spout instance simply means
    // its barriers never flow and the round aborts at the next tick.
    deliver_control(info.task, std::move(barrier));
  }
}

void Cluster::on_checkpoint_complete(sched::TopologyId topo,
                                     std::uint64_t ckpt, double duration,
                                     std::uint64_t bytes) {
  durable_.mark_completed(ckpt);
  trace_.record({sim_.now(), trace::EventKind::kCheckpointComplete, topo, -1,
                 -1, 0,
                 "round " + std::to_string(ckpt) + ", " +
                     std::to_string(bytes) + " B, " +
                     std::to_string(duration) + " s"});
  // Release the acks the topology's stateful bolts deferred against this
  // round (and any earlier one) — but only at each task's current
  // incarnation. A superseded incarnation still draining a reschedule
  // handoff holds updates its successor never saw (the successor restored
  // an earlier round before this one committed); releasing its acks would
  // complete trees whose updates exist nowhere the successor will ever
  // read. Left deferred, the acks die with the old incarnation and the
  // trees replay against the successor.
  for (const auto& instances : router_) {
    for (Executor* e : instances) {
      if (e->info().topology != topo) continue;
      if (!is_current_instance(*e)) continue;
      e->on_checkpoint_committed(ckpt);
    }
  }
}

void Cluster::state_write(Executor& from, std::uint64_t ckpt,
                          state::Snapshot snap) {
  assert(storage_node_ >= 0 && "state_write with state disabled");
  // A superseded incarnation must not contribute snapshots: its write
  // could satisfy the coordinator and commit a round containing updates
  // its successor — already restored from an earlier round — will never
  // apply. Dropping the write keeps the round honest: it completes from
  // the successor's snapshot or aborts at the timeout, and the old
  // incarnation's unreleased trees replay.
  if (!is_current_instance(from)) {
    if (checkpoints_ != nullptr) {
      checkpoints_->note_stale_write(from.info().topology);
    }
    return;
  }
  const auto src_node = from.node_id();
  // Serialized frame: entries + header/framing overhead.
  const std::uint64_t bytes = snap.bytes + 64;
  const std::uint32_t handle = stash_write(
      {from.info().topology, from.task(), ckpt, bytes, std::move(snap)});
  // Service-side write latency plus the sender's crowding penalty (the
  // storage pseudo-node runs no workers, so only the source side crowds).
  const double extra =
      config_.state.store_write_latency +
      config_.crowd_latency_coeff *
          node(src_node).crowding(config_.worker_overhead_threads);
  const bool delivered = network_.send(
      src_node, storage_node_, net::LinkType::kInterNode, bytes,
      [this, handle] {
        PendingWrite w = take_write(handle);
        durable_.put_pending(w.task, w.ckpt, std::move(w.snap));
        if (checkpoints_ != nullptr) {
          checkpoints_->on_snapshot_written(w.topo, w.ckpt, w.task, w.bytes,
                                            sim_.now());
        }
      },
      extra);
  if (!delivered) {
    // Lost on the wire: the round's write never acknowledges and the
    // coordinator aborts it at the next tick.
    take_write(handle);
    note_drop(DropCause::kNetworkLoss);
  }
}

std::uint32_t Cluster::stash_write(PendingWrite write) {
  if (!pending_writes_free_.empty()) {
    const std::uint32_t handle = pending_writes_free_.back();
    pending_writes_free_.pop_back();
    pending_writes_[handle] = std::move(write);
    return handle;
  }
  pending_writes_.push_back(std::move(write));
  return static_cast<std::uint32_t>(pending_writes_.size() - 1);
}

Cluster::PendingWrite Cluster::take_write(std::uint32_t handle) {
  PendingWrite write = std::move(pending_writes_[handle]);
  pending_writes_free_.push_back(handle);
  return write;
}

void Cluster::note_state_dedup() {
  ++state_dedup_suppressed_;
  note_drop(DropCause::kStateDedup);
}

double Cluster::dedup_horizon() const {
  return config_.state.dedup_horizon_factor *
         (1.0 + config_.late_ack_grace_factor) * config_.tuple_timeout;
}

std::vector<metrics::CheckpointGaugeRow> Cluster::checkpoint_gauges() const {
  std::vector<metrics::CheckpointGaugeRow> rows;
  if (checkpoints_ == nullptr) return rows;
  for (int topo : checkpoints_->topologies()) {
    const state::CheckpointGauges* g = checkpoints_->gauges(topo);
    if (g == nullptr) continue;
    rows.push_back({topo, g->completed, g->aborted, g->stale_writes,
                    g->last_id, g->last_bytes, g->last_duration,
                    g->mean_interval, config_.state.checkpoint_interval});
  }
  return rows;
}

}  // namespace tstorm::runtime
