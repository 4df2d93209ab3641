// Cluster: the root object wiring together the simulation clock, network,
// worker nodes, supervisors, Nimbus, the coordination store, the tuple
// tracker and the message router/dispatcher. One Cluster models the
// paper's 10-node Storm testbed end to end.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "flow/flow.h"
#include "metrics/completion.h"
#include "metrics/reporter.h"
#include "net/network.h"
#include "obs/provenance.h"
#include "obs/tuple_trace.h"
#include "runtime/config.h"
#include "runtime/coordination.h"
#include "runtime/envelope.h"
#include "runtime/nimbus.h"
#include "runtime/node.h"
#include "runtime/supervisor.h"
#include "runtime/task.h"
#include "runtime/tracker.h"
#include "runtime/worker.h"
#include "sched/scheduler.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "state/checkpoint.h"
#include "state/durable_store.h"
#include "topo/topology.h"
#include "trace/trace.h"

namespace tstorm::runtime {

/// Why a message was lost. Tests and the chaos auditor assert on each
/// cause independently — a soak with no partitions must see zero
/// kNetworkLoss, a clean shutdown zero kShutdownDrain, and so on.
enum class DropCause : std::uint8_t {
  /// No live executor instance could receive the message (task's worker
  /// dead or not yet started, at send or at delivery time).
  kDeadInstance,
  /// The network fault model lost the message in flight (random drop or
  /// partition window).
  kNetworkLoss,
  /// The message was queued at an executor when its worker shut down.
  kShutdownDrain,
  /// Flow control shed the tuple at a hard-full executor queue (see
  /// FlowConfig::shed_policy).
  kLoadShed,
  /// A stateful bolt suppressed a replayed duplicate: the update's lineage
  /// path was already applied (exactly-once dedup, StateConfig::enabled).
  kStateDedup,
};

const char* to_string(DropCause cause);

/// Lifetime: the cluster schedules events (message deliveries, worker
/// activations) into the simulation that reference cluster-owned state.
/// Destroy the cluster only when you are done advancing the simulation —
/// do not call sim.run*() after the cluster is gone.
class Cluster {
 public:
  Cluster(sim::Simulation& sim, ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// --- Topology lifecycle. ---

  /// Registers the topology, creates its tasks, and schedules it with
  /// `initial_algorithm` (defaults to Storm's round-robin scheduler when
  /// null). Returns the topology id.
  sched::TopologyId submit(topo::Topology topology,
                           sched::ISchedulingAlgorithm* initial_algorithm =
                               nullptr);

  /// Removes the topology's assignment; supervisors stop its workers on
  /// their next sync.
  void kill_topology(sched::TopologyId topo);

  /// --- Introspection. ---
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] Nimbus& nimbus() { return nimbus_; }
  [[nodiscard]] CoordinationStore& coordination() { return coordination_; }
  [[nodiscard]] TupleTracker& tracker() { return tracker_; }
  [[nodiscard]] metrics::CompletionRecorder& completion() {
    return recorder_;
  }
  /// Control-plane event trace (see trace/trace.h).
  [[nodiscard]] trace::TraceLog& trace_log() { return trace_; }
  /// Schedule provenance: one DecisionRecord per scheduling pass,
  /// published or rejected (see obs/provenance.h).
  [[nodiscard]] obs::ProvenanceLog& provenance() { return provenance_; }
  [[nodiscard]] const obs::ProvenanceLog& provenance() const {
    return provenance_;
  }
  /// Sampled per-tuple causal tracing (config_.obs.tuple_sample_rate).
  [[nodiscard]] obs::TupleTraceCollector& tuple_trace() {
    return tuple_trace_;
  }
  [[nodiscard]] const obs::TupleTraceCollector& tuple_trace() const {
    return tuple_trace_;
  }
  /// Flow control: bounded queues, backpressure, shedding (config_.flow).
  [[nodiscard]] flow::FlowController& flow() { return flow_; }
  [[nodiscard]] const flow::FlowController& flow() const { return flow_; }

  /// --- Stateful operators (config_.state). ---
  [[nodiscard]] bool state_enabled() const { return config_.state.enabled; }
  /// Durable checkpoint storage (always constructed; empty when disabled).
  [[nodiscard]] state::DurableStore& durable_state() { return durable_; }
  [[nodiscard]] const state::DurableStore& durable_state() const {
    return durable_;
  }
  /// Checkpoint coordinator; nullptr when state is disabled.
  [[nodiscard]] state::CheckpointCoordinator* checkpoints() {
    return checkpoints_.get();
  }
  [[nodiscard]] const state::CheckpointCoordinator* checkpoints() const {
    return checkpoints_.get();
  }
  /// Network endpoint of the durable storage service (the pseudo-node
  /// appended after the worker nodes); -1 when state is disabled.
  [[nodiscard]] int storage_node() const { return storage_node_; }
  /// Ships `snap`, written by executor `from` for round `ckpt`, to the
  /// durable store through the network model (write latency + bandwidth +
  /// fault model). A lost write simply never acknowledges — the round
  /// aborts at the coordinator's next tick.
  void state_write(Executor& from, std::uint64_t ckpt, state::Snapshot snap);
  /// Records a duplicate suppressed by a stateful bolt's dedup set (both
  /// the independent counter and the kStateDedup drop-attribution entry;
  /// the auditor cross-checks them).
  void note_state_dedup();
  [[nodiscard]] std::uint64_t state_dedup_suppressed() const {
    return state_dedup_suppressed_;
  }
  /// Age horizon for dedup sweeps (see StateConfig::dedup_horizon_factor).
  [[nodiscard]] double dedup_horizon() const;

  [[nodiscard]] int num_nodes() const { return config_.num_nodes; }
  [[nodiscard]] WorkerNode& node(sched::NodeId id);
  [[nodiscard]] Supervisor& supervisor(sched::NodeId id);

  /// Total slots across the cluster (heterogeneous-aware).
  [[nodiscard]] int total_slots() const;
  /// Slots (ports) on one node.
  [[nodiscard]] int slots_on_node(sched::NodeId node) const;

  /// Slot indexing: slots are numbered contiguously node by node
  /// (node 0's ports first, then node 1's, ...).
  [[nodiscard]] sched::SlotIndex slot_index(sched::NodeId node,
                                            int port) const;
  [[nodiscard]] sched::NodeId slot_node(sched::SlotIndex slot) const;
  [[nodiscard]] int slot_port(sched::SlotIndex slot) const;
  [[nodiscard]] std::vector<sched::SlotSpec> all_slots() const;

  [[nodiscard]] const topo::Topology& topology(sched::TopologyId topo) const;
  [[nodiscard]] std::vector<sched::TopologyId> topology_ids() const;
  [[nodiscard]] const std::vector<TaskInfo>& tasks() const { return tasks_; }
  [[nodiscard]] const TaskInfo& task_info(sched::TaskId task) const;
  /// A topology's tasks are contiguous ids, assigned at submit() one
  /// component after another in declaration order, so both lookups cost
  /// O(components + result), not a scan of tasks(). Unknown topologies
  /// and components yield an empty list.
  [[nodiscard]] std::vector<sched::TaskId> tasks_of(
      sched::TopologyId topo) const;
  [[nodiscard]] std::vector<sched::TaskId> tasks_of_component(
      sched::TopologyId topo, const std::string& component) const;
  /// Acker task ids of a topology (cached, sorted; empty if num_ackers=0).
  [[nodiscard]] const std::vector<sched::TaskId>& acker_tasks(
      sched::TopologyId topo) const;

  /// Builds the static part of a SchedulerInput (executors with zero load,
  /// slots, topology specs, topology edges, occupied slots from currently
  /// assigned topologies outside `topos`). Callers fill loads/traffic.
  [[nodiscard]] sched::SchedulerInput scheduler_input(
      const std::vector<sched::TopologyId>& topos) const;

  /// --- Routing (used by executors/workers). ---
  void register_executor(Executor* executor);
  void unregister_executor(Executor* executor);

  /// Resolves the executor instance that should receive a message sent by
  /// a worker running under `sender_version` — the T-Storm dispatcher
  /// rule: the newest instance not newer than the sender, else the oldest
  /// newer one. Returns nullptr if the task has no live instance.
  [[nodiscard]] Executor* resolve(sched::TaskId task,
                                  sched::AssignmentVersion sender_version)
      const;

  /// True when `e` is the newest live instance of its task. During a
  /// reschedule handoff the superseded incarnation keeps draining
  /// old-version traffic, but it must not participate in checkpointing
  /// (see state_write / on_checkpoint_complete).
  [[nodiscard]] bool is_current_instance(const Executor& e) const;

  /// Sends an envelope from `from` to task `dst` over the modeled network.
  void send(Executor& from, sched::TaskId dst, Envelope env);

  /// Zero-latency control-plane delivery to the latest instance of a task
  /// (tracker replay requests). Returns false if no instance is live.
  bool deliver_control(sched::TaskId dst, Envelope env);

  /// --- Monitoring / stats. ---
  [[nodiscard]] std::vector<Executor*> executors_on_node(
      sched::NodeId node) const;
  [[nodiscard]] std::vector<Executor*> instances_of(sched::TaskId task) const;
  [[nodiscard]] int nodes_in_use() const;
  [[nodiscard]] int slots_in_use() const;
  /// Total lost messages across all causes.
  [[nodiscard]] std::uint64_t dropped_messages() const;
  /// Lost messages attributed to one cause.
  [[nodiscard]] std::uint64_t dropped_by(DropCause cause) const;
  /// Every executor instance currently registered with the router. The
  /// chaos auditor cross-checks this against supervisor-owned workers to
  /// catch dangling registrations.
  [[nodiscard]] std::vector<Executor*> registered_executors() const;

  /// Pauses every live spout executor of the topology until `until`
  /// (T-Storm reassignment smoothing). New spout executors are paused via
  /// Worker::start's spout_halt_delay instead.
  void pause_spouts(sched::TopologyId topo, sim::Time until);

  /// Failure injection: kills the worker at (node, port) immediately.
  bool kill_worker(sched::NodeId node, int port);

  /// Node failure injection: the whole machine goes down — every worker on
  /// it dies, its supervisor stops syncing, and its slots disappear from
  /// scheduler inputs until recover_node(). Returns false if already down.
  bool fail_node(sched::NodeId node);
  /// Brings a failed node back (empty; schedulers may use it again).
  bool recover_node(sched::NodeId node);
  [[nodiscard]] bool node_available(sched::NodeId node) const;

  /// Records a lost message under its cause (internal bookkeeping; exposed
  /// for the executor/worker shutdown paths).
  void note_drop(DropCause cause);

  /// Per-executor flow gauges (data-queue depth + shed count) for every
  /// registered executor, sorted by task then node (stable output for
  /// metrics::print_flow_gauges).
  [[nodiscard]] std::vector<metrics::FlowGaugeRow> flow_gauges() const;

  /// Per-topology checkpoint gauges (completions, aborts, snapshot bytes,
  /// duration, interval adherence) for metrics::print_checkpoint_gauges.
  /// Empty when state is disabled.
  [[nodiscard]] std::vector<metrics::CheckpointGaugeRow> checkpoint_gauges()
      const;

 private:
  /// Checkpoint-coordinator callbacks (wired in the constructor).
  void inject_barriers(sched::TopologyId topo, std::uint64_t ckpt);
  void on_checkpoint_complete(sched::TopologyId topo, std::uint64_t ckpt,
                              double duration, std::uint64_t bytes);
  /// In-flight message slab. Envelopes awaiting network delivery are parked
  /// here and referenced by a 32-bit handle, so delivery closures capture
  /// {this, dst, version, handle} — 24 bytes, inside InlineFn's inline
  /// buffer — instead of a 56-byte envelope that would force every message
  /// through the callback pool.
  std::uint32_t stash_envelope(Envelope env);
  Envelope take_envelope(std::uint32_t handle);

  sim::Simulation& sim_;
  ClusterConfig config_;
  sim::Rng rng_;
  net::Network network_;
  CoordinationStore coordination_;
  metrics::CompletionRecorder recorder_;
  // Declared before supervisors_ so it outlives them: workers emit
  // worker-stopped events from their destructors.
  trace::TraceLog trace_;
  // Observability sinks. Like trace_, declared before supervisors_ so
  // executor teardown hooks can still reach them.
  obs::ProvenanceLog provenance_;
  obs::TupleTraceCollector tuple_trace_;
  // After coordination_/trace_ (it holds references to both), before
  // supervisors_ (executors call flow().forget from shutdown).
  flow::FlowController flow_;
  // Stateful-operator machinery. Before supervisors_: restoring executors
  // read the durable store from on_start, and snapshot-write delivery
  // closures reach both through `this`. The coordinator and its tick exist
  // only when config_.state.enabled.
  state::DurableStore durable_;
  std::unique_ptr<state::CheckpointCoordinator> checkpoints_;
  std::unique_ptr<sim::PeriodicTask> checkpoint_tick_;
  TupleTracker tracker_;
  Nimbus nimbus_;

  /// slot_offsets_[n] = first slot index of node n; back() = total slots.
  /// Declared before supervisors_ (like trace_): workers consult the slot
  /// math from their destructors.
  std::vector<int> slot_offsets_;
  std::vector<WorkerNode> nodes_;

  /// Live executor instances per task (usually 1; 2 during T-Storm
  /// reassignment co-existence). Indexed by TaskId — ids are small and
  /// dense, and resolve() runs twice per envelope, so the routing table is
  /// a flat array rather than a hash map. Declared before supervisors_:
  /// executors unregister themselves from it during worker shutdown.
  std::vector<std::vector<Executor*>> router_;

  /// Slot storage for stash_envelope()/take_envelope(); free slots are a
  /// freelist threaded through in_flight_free_. Declared before
  /// supervisors_: worker teardown reclaims stashed envelopes.
  std::vector<Envelope> in_flight_;
  std::vector<std::uint32_t> in_flight_free_;

  /// In-flight snapshot writes (same slab/handle idiom as in_flight_:
  /// delivery closures capture {this, handle} and stay inside InlineFn's
  /// inline buffer).
  struct PendingWrite {
    sched::TopologyId topo = -1;
    sched::TaskId task = -1;
    std::uint64_t ckpt = 0;
    std::uint64_t bytes = 0;
    state::Snapshot snap;
  };
  std::uint32_t stash_write(PendingWrite write);
  PendingWrite take_write(std::uint32_t handle);
  std::vector<PendingWrite> pending_writes_;
  std::vector<std::uint32_t> pending_writes_free_;

  std::vector<std::unique_ptr<Supervisor>> supervisors_;

  /// Topologies stored stably (ComponentDef pointers live in TaskInfo).
  std::deque<topo::Topology> topologies_;
  std::vector<sched::TopologyId> topology_ids_;
  std::vector<TaskInfo> tasks_;  // indexed by TaskId
  /// Task ranges: topology t owns task ids [task_offsets_[t],
  /// task_offsets_[t + 1]), one component after another in declaration
  /// order, each component's tasks by index. submit() is the only writer.
  std::vector<sched::TaskId> task_offsets_ = {0};
  std::unordered_map<sched::TopologyId, std::vector<sched::TaskId>>
      acker_tasks_;

  std::uint64_t dropped_by_cause_[5] = {0, 0, 0, 0, 0};
  /// Independent side of the kStateDedup double-entry check.
  std::uint64_t state_dedup_suppressed_ = 0;
  /// Storage pseudo-node id (== number of worker nodes); -1 when disabled.
  int storage_node_ = -1;
  std::unique_ptr<sched::ISchedulingAlgorithm> default_initial_;
};

}  // namespace tstorm::runtime
