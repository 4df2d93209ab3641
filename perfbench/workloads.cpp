// The benchmark's workloads and their run loop.
//
// Every workload is a host batch job: build a T-Storm system from the
// seed, simulate a fixed horizon as fast as possible in fixed run_until
// slices, check the run, and digest it. The simulated input is open loop
// (QueueProducer pushes lines at a fixed simulated rate whatever the
// topology does) except for the Throughput Test, whose spouts pace
// themselves (5 ms) inside the max_pending window.
//
// One invocation repeats the run with the same seed until --seconds of
// host time are used (at least three times), reports medians of the host
// timings (a mean for scheduling passes, see README.md), and fails if two
// repetitions disagree on the digest. The traced invocation alternates
// untraced and traced repetitions: the untraced ones give the tracing
// overhead, the traced ones the per-layer metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <unordered_set>

#include "bench.h"
#include "chaos/auditor.h"
#include "chaos/fault_plan.h"
#include "core/energy_meter.h"
#include "core/system.h"
#include "metrics/histogram.h"
#include "runtime/executor.h"
#include "sim/simulation.h"
#include "state/checkpoint.h"
#include "state/state_store.h"
#include "topo/tuple.h"
#include "trace/trace.h"
#include "workload/external_queue.h"
#include "workload/topologies.h"

namespace perfbench {

namespace {

namespace core = tstorm::core;
namespace rt = tstorm::runtime;
namespace sched = tstorm::sched;
namespace wl = tstorm::workload;
using tstorm::net::LinkType;
using tstorm::trace::EventKind;

constexpr LinkType kLinks[3] = {LinkType::kIntraProcess,
                                LinkType::kInterProcess,
                                LinkType::kInterNode};
constexpr const char* kLinkNames[3] = {"intra_process", "inter_process",
                                       "inter_node"};
constexpr rt::DropCause kCauses[5] = {
    rt::DropCause::kDeadInstance, rt::DropCause::kNetworkLoss,
    rt::DropCause::kShutdownDrain, rt::DropCause::kLoadShed,
    rt::DropCause::kStateDedup};
constexpr const char* kCauseNames[5] = {"dead_instance", "network_loss",
                                        "shutdown_drain", "load_shed",
                                        "state_dedup"};

/// Independent per-purpose seeds derived from the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return tstorm::state::mix64(seed * 0x9e3779b97f4a7c15ULL + salt);
}

/// One constructed system. Members are declared so that destruction runs
/// input producers first and the simulation last.
struct Instance {
  tstorm::sim::Simulation sim;
  std::vector<std::shared_ptr<wl::ExternalQueue>> queues;
  std::unique_ptr<core::TStormSystem> sys;
  std::vector<std::unique_ptr<wl::QueueProducer>> producers;
  std::unique_ptr<core::EnergyMeter> energy;

  rt::Cluster& cluster() { return sys->cluster(); }

  void feed(std::shared_ptr<wl::ExternalQueue> queue, double lines_per_s) {
    producers.push_back(
        std::make_unique<wl::QueueProducer>(sim, *queue, lines_per_s));
    producers.back()->start();
    queues.push_back(std::move(queue));
  }
  [[nodiscard]] std::uint64_t backlog() const {
    std::uint64_t n = 0;
    for (const auto& q : queues) n += q->size();
    return n;
  }
};

struct Scenario {
  std::string name;
  rt::ClusterConfig cluster;
  core::CoreConfig core;
  double horizon = 1000;  // simulated seconds per repetition
  double slice = 10;      // run_until slice, simulated seconds
  double line_rate = 0;   // total open-loop input, lines/s (0: closed)
  /// Submits the topologies and starts the input producers.
  std::function<void(Instance&, std::uint64_t seed)> populate;
  /// stateful_failover: crash the node hosting a stateful task at
  /// crash_at for `downtime` simulated seconds.
  double crash_at = -1;
  double downtime = 0;
  bool uses_text = false;
  /// Scheduling passes timed after each slice (from repetition 1 on).
  int passes_per_slice = 10;
  /// sched_fleet: local search runs on a quarter of the input.
  bool fleet = false;
};

/// The paper's Word Count, fed at `rate` lines/s; `salt` picks its text
/// seed.
std::function<void(Instance&, std::uint64_t)> word_count(double rate,
                                                         std::uint64_t salt) {
  return [rate, salt](Instance& in, std::uint64_t seed) {
    wl::WordCountOptions opt;
    opt.text.seed = derive(seed, salt);
    auto wc = wl::make_word_count(opt);
    in.feed(wc.queue, rate);
    in.sys->submit(std::move(wc.topology));
  };
}

Scenario wordcount_tstorm() {
  Scenario s;
  s.name = "wordcount_tstorm";
  s.core.gamma = 1.8;
  s.line_rate = 260;
  s.uses_text = true;
  s.populate = word_count(s.line_rate, 1);
  return s;
}

Scenario throughput_test() {
  Scenario s;
  s.name = "throughput_test";
  s.core.gamma = 1.0;
  s.populate = [](Instance& in, std::uint64_t seed) {
    wl::ThroughputTestOptions opt;
    opt.seed = derive(seed, 2);
    in.sys->submit(wl::make_throughput_test(opt));
  };
  return s;
}

Scenario stateful_failover() {
  Scenario s;
  s.name = "stateful_failover";
  s.cluster.state.enabled = true;
  s.cluster.state.checkpoint_interval = 5.0;
  s.cluster.flow.enabled = true;
  s.cluster.failure_detection = true;
  s.core.gamma = 1.8;
  s.horizon = 600;
  s.line_rate = 100;
  s.crash_at = 200;
  s.downtime = 150;
  s.uses_text = true;
  s.populate = word_count(s.line_rate, 3);
  return s;
}

/// Fleet scale: copies of the three paper topologies on 80 nodes x 4
/// slots (742 executors), fed at low rates so that the data plane stays
/// cheap while the scheduler sees a fleet-sized input with measured loads
/// and traffic.
Scenario sched_fleet() {
  constexpr int kCopies = 7;
  constexpr double kWordRate = 30;
  constexpr double kLogRate = 30;
  Scenario s;
  s.name = "sched_fleet";
  s.cluster.num_nodes = 80;
  s.core.gamma = 1.0;
  s.core.generation_period = 100;
  s.horizon = 440;
  s.line_rate = kCopies * (kWordRate + kLogRate);
  s.uses_text = true;
  s.passes_per_slice = 6;
  s.fleet = true;
  s.populate = [](Instance& in, std::uint64_t seed) {
    for (int c = 0; c < kCopies; ++c) {
      const auto tag = static_cast<std::uint64_t>(c) * 16;
      wl::WordCountOptions wc_opt;
      wc_opt.name = "word-count-" + std::to_string(c);
      wc_opt.workers = 15;
      wc_opt.emit_interval = 0.01;
      wc_opt.text.seed = derive(seed, 10 + tag);
      auto wc = wl::make_word_count(wc_opt);
      in.feed(wc.queue, kWordRate);
      in.sys->submit(std::move(wc.topology));

      wl::ThroughputTestOptions tt_opt;
      tt_opt.name = "throughput-test-" + std::to_string(c);
      tt_opt.workers = 15;
      tt_opt.emit_interval = 0.05;
      tt_opt.seed = derive(seed, 11 + tag);
      in.sys->submit(wl::make_throughput_test(tt_opt));

      wl::LogStreamOptions ls_opt;
      ls_opt.name = "log-stream-" + std::to_string(c);
      ls_opt.workers = 15;
      ls_opt.emit_interval = 0.01;
      ls_opt.log.seed = derive(seed, 12 + tag);
      auto ls = wl::make_log_stream(ls_opt);
      in.feed(ls.queue, kLogRate);
      in.sys->submit(std::move(ls.topology));
    }
  };
  return s;
}

Scenario scenario(const std::string& name) {
  if (name == "wordcount_tstorm") return wordcount_tstorm();
  if (name == "throughput_test") return throughput_test();
  if (name == "stateful_failover") return stateful_failover();
  return sched_fleet();
}

std::unique_ptr<Instance> build(const Scenario& sc, std::uint64_t seed) {
  auto in = std::make_unique<Instance>();
  rt::ClusterConfig cfg = sc.cluster;
  cfg.seed = seed;
  in->sys = std::make_unique<core::TStormSystem>(in->sim, cfg, sc.core);
  sc.populate(*in, seed);
  return in;
}

/// Everything one repetition measured.
struct Rep {
  bool traced = false;
  // Host samples, taken at the same positions in every repetition.
  std::vector<double> slice_s;  // host seconds per run_until slice
  std::vector<double> setup_s;  // [0]: this repetition's own set-up
  std::vector<std::vector<double>> pass_ms;  // pass block after each slice
  double run_s = 0;             // sum of slice_s
  double slice_self_s = 0;  // traced: slices minus their scheduling passes
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t replayed = 0;
  tstorm::net::LinkStats links[3];
  std::uint64_t dropped[5] = {0, 0, 0, 0, 0};
  std::uint64_t placement_hash = 0;
  double proc_ms = 0;
  double p99_ms = 0;  // second half of the horizon
  double node_seconds = 0;
  double energy_kwh = 0;
  std::size_t pending_peak = 0;
  std::size_t in_flight_peak = 0;
  std::size_t queue_depth_peak = 0;
  double node_load_max = 0;
  std::uint64_t backlog_mid = 0;
  std::uint64_t backlog_end = 0;
  double kill_time = -1;
  double time_to_restore = -1;
  double time_to_consistent = -1;
  std::uint64_t allocs_late = 0;     // simulation allocations, second half
  std::uint64_t completed_late = 0;  // trees completed in the second half
  std::uint64_t pool_blocks = 0;     // tuple-pool carving during the rep
  std::uint64_t pool_strings = 0;
  std::uint64_t generations = 0;
  std::uint64_t publishes = 0;
  std::uint64_t overload_triggers = 0;
  std::uint64_t shed_total = 0;
  std::uint64_t throttle_activations = 0;
  std::uint64_t ckpt_completed = 0;
  std::uint64_t ckpt_started = 0;
  std::uint64_t snapshot_bytes = 0;
  double snapshot_sim_ms = 0;
  std::uint64_t dedup_suppressed = 0;
  std::vector<double> inrun_pass_ms;
  std::uint64_t inrun_relaxed = 0;
  std::vector<std::string> violations;

  /// Everything simulated: must repeat exactly for one seed.
  [[nodiscard]] std::string digest() const {
    std::ostringstream os;
    os << "events=" << events << " completed=" << completed
       << " failed=" << failed << " replayed=" << replayed;
    for (int i = 0; i < 3; ++i) {
      os << " " << kLinkNames[i] << "=" << links[i].messages << "/"
         << links[i].bytes << "/" << links[i].dropped;
    }
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  " placement=%016llx proc_ms=%.17g p99_ms=%.17g "
                  "kwh=%.17g restore=%.17g consistent=%.17g",
                  static_cast<unsigned long long>(placement_hash), proc_ms,
                  p99_ms, energy_kwh, time_to_restore, time_to_consistent);
    os << buf << " generations=" << generations
       << " publishes=" << publishes << " ckpt=" << ckpt_completed << "/"
       << ckpt_started << " shed=" << shed_total
       << " dedup=" << dedup_suppressed;
    return os.str();
  }
};

/// Host-side samples taken between simulation slices: scheduling passes
/// over a fixed reference input (the final scheduler input of repetition
/// 0) and set-up timings, so that every repetition samples them at the
/// same positions.
struct Sampler {
  Sampler(const Scenario& scenario, std::uint64_t workload_seed, int passes,
          int every)
      : sc(scenario),
        seed(workload_seed),
        passes_per_slice(passes),
        setup_every(every) {}

  const Scenario& sc;
  std::uint64_t seed;
  int passes_per_slice;
  int setup_every;
  const sched::SchedulerInput* input = nullptr;
  std::unique_ptr<sched::ISchedulingAlgorithm> alg;
  std::uint64_t placement_hash = 0;
  std::vector<std::string> errors;

  void after_slice(int slice, SpanRecorder& spans, Rep& rep) {
    std::vector<double>& block = rep.pass_ms.emplace_back();
    if (input != nullptr) {
      ScopedSpan span(spans, "sample.sched_passes");
      for (int k = 0; k < passes_per_slice; ++k) {
        const auto t0 = Clock::now();
        const sched::ScheduleResult r = alg->schedule(*input);
        block.push_back(seconds_since(t0) * 1e3);
        if (k == 0 && hash_placement(r.assignment) != placement_hash) {
          errors.push_back("traffic-aware placement changed between passes");
        }
      }
    }
    if (slice % setup_every == 0) {
      ScopedSpan span(spans, "sample.setup");
      const auto t0 = Clock::now();
      auto in = build(sc, seed);
      rep.setup_s.push_back(seconds_since(t0));
    }
  }
};

std::uint64_t final_placement_hash(rt::Cluster& cluster) {
  std::uint64_t h = 0;
  for (sched::TopologyId topo : cluster.topology_ids()) {
    const rt::AssignmentRecord* a = cluster.nimbus().assignment(topo);
    if (a == nullptr) continue;
    h = tstorm::state::mix64(h ^ hash_placement(a->placement) ^
                             static_cast<std::uint64_t>(a->version));
  }
  return h;
}

/// The node hosting the first executor with keyed state, or -1.
int stateful_node(rt::Cluster& cluster) {
  for (rt::Executor* e : cluster.registered_executors()) {
    if (e->state_store() != nullptr && e->state_store()->size() > 0) {
      return e->node_id();
    }
  }
  return -1;
}

double first_after(rt::Cluster& cluster, EventKind kind, double t) {
  for (const auto& e : cluster.trace_log().of_kind(kind)) {
    if (e.time > t) return e.time;
  }
  return -1;
}

/// Sample count per occupied bin of a latency histogram, keyed by the
/// bin's upper edge, recovered through its public percentile() query.
std::map<double, std::uint64_t> bin_counts(
    const tstorm::metrics::LatencyHistogram& h) {
  std::map<double, std::uint64_t> bins;
  const std::uint64_t n = h.count();
  // Upper edge of the bin holding the sample of rank r (1-based).
  auto edge = [&](std::uint64_t r) {
    return h.percentile(100.0 * (static_cast<double>(r) - 0.5) /
                        static_cast<double>(n));
  };
  for (std::uint64_t first = 1; first <= n;) {
    const double upper = edge(first);
    std::uint64_t lo = first, hi = n;  // last rank in this bin
    while (lo < hi) {
      const std::uint64_t mid = (lo + hi + 1) / 2;
      if (edge(mid) > upper) {
        hi = mid - 1;
      } else {
        lo = mid;
      }
    }
    bins[upper] = lo - first + 1;
    first = lo + 1;
  }
  return bins;
}

/// p99 of the latencies recorded between two copies of one histogram,
/// interpolated linearly inside its log-scale bin (the histogram itself
/// answers with the bin's upper edge, which moves in 4% steps).
double window_p99(const tstorm::metrics::LatencyHistogram& before,
                  const tstorm::metrics::LatencyHistogram& after) {
  using H = tstorm::metrics::LatencyHistogram;
  const std::uint64_t n = after.count() - before.count();
  if (n == 0) return 0;
  std::map<double, std::uint64_t> bins = bin_counts(after);
  for (const auto& [upper, count] : bin_counts(before)) bins[upper] -= count;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(0.99 * static_cast<double>(n)));
  const double width =
      std::exp((std::log(H::kMaxMs) - std::log(H::kMinMs)) / H::kBins);
  std::uint64_t seen = 0;
  for (const auto& [upper, count] : bins) {
    if (count > 0 && seen + count >= rank) {
      const double lower = upper / width;
      const double frac = (static_cast<double>(rank - seen) - 0.5) /
                          static_cast<double>(count);
      return lower + frac * (upper - lower);
    }
    seen += count;
  }
  return 0;
}

/// One repetition. Returns the still-live instance so the caller can read
/// its final scheduler input.
std::unique_ptr<Instance> run_rep(const Scenario& sc, std::uint64_t seed,
                                  SpanRecorder& spans, Sampler& sampler,
                                  Rep& rep) {
  rep.traced = spans.enabled();
  const int root = spans.begin("run." + sc.name);
  const auto pool0 = tstorm::topo::detail::tuple_pool_stats();

  const int setup_span = spans.begin("setup");
  const auto t_setup = Clock::now();
  auto in = build(sc, seed);
  rep.setup_s.push_back(seconds_since(t_setup));
  spans.end(setup_span);

  rt::Cluster& cluster = in->cluster();
  in->energy = std::make_unique<core::EnergyMeter>(cluster);
  in->energy->start();

  // Traced repetitions time every scheduling pass (generator and Nimbus
  // recovery) and mark control-plane events; untraced ones install nothing.
  TimedAlgorithm* generator_alg = nullptr;
  std::unique_ptr<TimedAlgorithm> recovery_alg;
  if (rep.traced) {
    auto timed = std::make_unique<TimedAlgorithm>(
        sched::AlgorithmRegistry::instance().create(sc.core.algorithm),
        spans);
    generator_alg = timed.get();
    in->sys->generator().set_algorithm(std::move(timed));
    recovery_alg = std::make_unique<TimedAlgorithm>(
        sched::AlgorithmRegistry::instance().create("round-robin"), spans);
    cluster.nimbus().set_recovery_algorithm(recovery_alg.get());
    cluster.trace_log().set_listener([&spans](const tstorm::trace::Event& e) {
      switch (e.kind) {
        case EventKind::kSchedulePublished:
        case EventKind::kScheduleApplied:
        case EventKind::kCheckpointComplete:
        case EventKind::kStateRestored:
        case EventKind::kNodeDeclaredDead: {
          char args[96];
          std::snprintf(args, sizeof args,
                        "\"sim_s\": %.6f, \"topology\": %d, \"node\": %d",
                        e.time, e.topology, e.node);
          spans.instant(
              std::string("event.") + tstorm::trace::to_string(e.kind), args);
          break;
        }
        default:
          break;
      }
    });
  }

  const int slices = static_cast<int>(std::llround(sc.horizon / sc.slice));
  std::uint64_t allocs_mid = 0;
  std::uint64_t completed_mid = 0;
  std::uint64_t sampler_allocs = 0;  // from mid-run on
  tstorm::metrics::LatencyHistogram latency_mid;
  for (int i = 1; i <= slices; ++i) {
    const double until = sc.slice * i;
    const int span = spans.begin("sim.run_until");
    const auto t0 = Clock::now();
    in->sim.run_until(until);
    rep.slice_s.push_back(seconds_since(t0));
    char args[64];
    std::snprintf(args, sizeof args, "\"until_sim_s\": %.1f", until);
    spans.end(span, args);
    if (rep.traced) rep.slice_self_s += spans.self_ns(span) * 1e-9;

    rep.pending_peak = std::max(rep.pending_peak, in->sim.pending());
    rep.in_flight_peak =
        std::max(rep.in_flight_peak, cluster.tracker().in_flight());
    if (rep.traced) {
      for (rt::Executor* e : cluster.registered_executors()) {
        rep.queue_depth_peak =
            std::max(rep.queue_depth_peak, e->queue_depth());
      }
      for (int n = 0; n < cluster.num_nodes(); ++n) {
        rep.node_load_max =
            std::max(rep.node_load_max, in->sys->db().node_load(n));
      }
    }
    if (i == slices / 2) {
      latency_mid = cluster.completion().latency_histogram();
      rep.backlog_mid = in->backlog();
      allocs_mid = allocations();
      completed_mid = cluster.completion().total_completed();
      sampler_allocs = 0;
    }
    if (sc.crash_at >= 0 && rep.kill_time < 0 && until >= sc.crash_at) {
      const int node = stateful_node(cluster);
      if (node < 0) {
        rep.violations.push_back("no node hosts a stateful task at crash");
      } else {
        tstorm::chaos::FaultPlan plan;
        plan.crash_node(until, node, sc.downtime);
        plan.inject(cluster);
        rep.kill_time = until;
      }
    }
    // Outside the slice timing, so it never counts as simulation time;
    // its allocations are not the simulation's either.
    const auto a0 = allocations();
    sampler.after_slice(i, spans, rep);
    sampler_allocs += allocations() - a0;
  }
  for (double s : rep.slice_s) rep.run_s += s;
  rep.allocs_late = allocations() - allocs_mid - sampler_allocs;
  rep.completed_late = cluster.completion().total_completed() - completed_mid;
  if (rep.traced) cluster.trace_log().set_listener(nullptr);

  // -------------------------------------------------------- read counters
  const auto& rec = cluster.completion();
  rep.events = in->sim.events_executed();
  rep.completed = rec.total_completed();
  rep.failed = rec.total_failed();
  rep.replayed = rec.total_replayed();
  for (int i = 0; i < 3; ++i) {
    rep.links[i] = cluster.network().stats(kLinks[i]);
  }
  for (int i = 0; i < 5; ++i) rep.dropped[i] = cluster.dropped_by(kCauses[i]);
  rep.placement_hash = final_placement_hash(cluster);
  // Steady-state outcomes: from the end of the middle slice on.
  const double mid_time = sc.slice * (slices / 2);
  rep.proc_ms =
      rec.proc_time_ms().mean_between(mid_time, sc.horizon).value_or(0);
  rep.p99_ms = window_p99(latency_mid, rec.latency_histogram());
  rep.node_seconds = in->energy->node_seconds();
  rep.energy_kwh = in->energy->kwh();
  rep.backlog_end = in->backlog();
  const auto pool1 = tstorm::topo::detail::tuple_pool_stats();
  rep.pool_blocks = pool1.blocks_carved - pool0.blocks_carved;
  rep.pool_strings = pool1.string_carved - pool0.string_carved;
  rep.generations = in->sys->generator().generations();
  rep.publishes = in->sys->generator().publishes();
  rep.overload_triggers = in->sys->generator().overload_triggers();
  rep.shed_total = cluster.flow().shed_total();
  rep.throttle_activations = cluster.flow().throttle_activations();
  rep.dedup_suppressed = cluster.state_dedup_suppressed();
  if (const auto* ckpt = cluster.checkpoints(); ckpt != nullptr) {
    for (int topo : ckpt->topologies()) {
      const auto* g = ckpt->gauges(topo);
      if (g == nullptr) continue;
      rep.ckpt_completed += g->completed;
      rep.ckpt_started += g->completed + g->aborted +
                          (ckpt->inflight_round(topo) != 0 ? 1 : 0);
      rep.snapshot_bytes += g->last_bytes;
      rep.snapshot_sim_ms =
          std::max(rep.snapshot_sim_ms, g->last_duration * 1e3);
    }
  }
  if (rep.kill_time >= 0) {
    const double restored =
        first_after(cluster, EventKind::kStateRestored, rep.kill_time);
    if (restored >= 0) {
      rep.time_to_restore = restored - rep.kill_time;
      const double consistent =
          first_after(cluster, EventKind::kCheckpointComplete, restored);
      if (consistent >= 0) {
        rep.time_to_consistent = consistent - rep.kill_time;
      }
    }
  }
  for (const TimedAlgorithm* t : {generator_alg, recovery_alg.get()}) {
    if (t == nullptr) continue;
    rep.inrun_pass_ms.insert(rep.inrun_pass_ms.end(), t->pass_ms().begin(),
                             t->pass_ms().end());
    rep.inrun_relaxed += t->relaxed();
  }
  // The recovery wrapper dies with this function; the instance outlives it.
  if (recovery_alg != nullptr) cluster.nimbus().set_recovery_algorithm(nullptr);

  // --------------------------------------------------------------- checks
  const tstorm::chaos::AuditReport audit =
      tstorm::chaos::InvariantAuditor(cluster).check_now();
  for (const auto& v : audit.violations) {
    rep.violations.push_back("audit: " + v);
  }
  if (rep.completed == 0) rep.violations.push_back("no tree completed");
  if (sc.line_rate > 0) {
    // Open-loop input must not pile up: at the end the external queues
    // hold at most two seconds of input and at most one second more than
    // at mid-run.
    const auto limit = static_cast<std::uint64_t>(2 * sc.line_rate);
    const auto growth = static_cast<std::uint64_t>(sc.line_rate);
    if (rep.backlog_end > limit ||
        rep.backlog_end > rep.backlog_mid + growth) {
      rep.violations.push_back(
          "external-queue backlog grows: " + std::to_string(rep.backlog_mid) +
          " lines at mid-run, " + std::to_string(rep.backlog_end) + " at end");
    }
  }
  if (sc.crash_at >= 0 &&
      (rep.time_to_restore < 0 || rep.time_to_consistent < 0)) {
    rep.violations.push_back("stateful task was not restored after the crash");
  }
  spans.end(root);
  return in;
}

/// Host timings of one invocation. Every repetition does identical work
/// and takes its host samples at the same positions: slice i, set-up
/// sample k, the pass block after slice i. A shared host runs slow for
/// seconds at a time, so each position keeps the sample of its least
/// disturbed repetition: the fastest slice, the fastest set-up, the pass
/// block with the lowest median.
struct HostTimes {
  double horizon_s = 0;         // sum over slices of the fastest untraced
  std::vector<double> setup_s;  // one per position
  std::vector<double> pass_ms;  // the kept blocks, pooled
};

HostTimes least_disturbed(const std::vector<Rep>& reps) {
  HostTimes t;
  const Rep& r0 = reps.front();  // never traced
  for (std::size_t i = 0; i < r0.slice_s.size(); ++i) {
    double best = r0.slice_s[i];
    for (const Rep& r : reps) {
      if (!r.traced) best = std::min(best, r.slice_s[i]);
    }
    t.horizon_s += best;
  }
  for (std::size_t k = 0; k < r0.setup_s.size(); ++k) {
    double best = r0.setup_s[k];
    for (const Rep& r : reps) best = std::min(best, r.setup_s[k]);
    t.setup_s.push_back(best);
  }
  for (std::size_t i = 0; i < r0.pass_ms.size(); ++i) {
    const std::vector<double>* kept = nullptr;
    double kept_median = 0;
    for (const Rep& r : reps) {
      if (r.pass_ms[i].empty()) continue;  // repetition 0 has no input yet
      const double m = median(r.pass_ms[i]);
      if (kept == nullptr || m < kept_median) {
        kept = &r.pass_ms[i];
        kept_median = m;
      }
    }
    if (kept != nullptr) {
      t.pass_ms.insert(t.pass_ms.end(), kept->begin(), kept->end());
    }
  }
  return t;
}

void add(Metrics& m, const std::string& name, double value,
         const std::string& unit) {
  m[name] = Metric{value, unit};
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

/// The fleet's first quarter of topologies, for local search (a full-size
/// pass takes about a second).
sched::SchedulerInput quarter(const sched::SchedulerInput& input) {
  sched::SchedulerInput sub = input;
  std::unordered_set<sched::TopologyId> keep;
  for (std::size_t i = 0; i < input.topologies.size() / 4; ++i) {
    keep.insert(input.topologies[i].id);
  }
  std::unordered_set<sched::TaskId> tasks;
  for (const auto& e : input.executors) {
    if (keep.contains(e.topology)) tasks.insert(e.task);
  }
  std::erase_if(sub.executors, [&](const sched::ExecutorSpec& e) {
    return !keep.contains(e.topology);
  });
  std::erase_if(sub.topologies, [&](const sched::TopologySpec& t) {
    return !keep.contains(t.id);
  });
  std::erase_if(sub.traffic, [&](const sched::TrafficEntry& t) {
    return !tasks.contains(t.src) || !tasks.contains(t.dst);
  });
  std::erase_if(sub.topology_edges, [&](const auto& e) {
    return !tasks.contains(e.first) || !tasks.contains(e.second);
  });
  return sub;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "wordcount_tstorm", "throughput_test", "stateful_failover",
      "sched_fleet"};
  return names;
}

Outcome run_workload(const Options& opt) {
  const Scenario sc = scenario(opt.workload);
  Outcome out;
  SpanRecorder off(false);
  SpanRecorder spans(opt.trace);
  const int slices = static_cast<int>(std::llround(sc.horizon / sc.slice));
  Sampler sampler(sc, opt.seed, sc.passes_per_slice,
                  std::max(1, slices / 10));

  // Repetitions of one seed. Untraced invocations run at least three, so
  // that each sample position has repetitions to choose from; the traced
  // invocation alternates untraced and traced repetitions.
  std::vector<Rep> reps;
  sched::SchedulerInput input;
  PassStats reference;
  double rss_mb = 0;
  std::unique_ptr<Instance> last;
  const std::size_t min_reps = opt.trace ? 2 : 3;
  const auto start = Clock::now();
  while (reps.size() < min_reps || seconds_since(start) < opt.seconds) {
    const bool traced = opt.trace && reps.size() % 2 == 1;
    Rep rep;
    last.reset();  // tear the previous system down before building the next
    last = run_rep(sc, opt.seed, traced ? spans : off, sampler, rep);
    reps.push_back(std::move(rep));
    if (reps.size() == 1) {
      // Peak memory of one repetition: later repetitions only churn the
      // allocator, by an amount that depends on how many fit in the time.
      rss_mb = peak_rss_mb();
      // The reference input for every later scheduling pass.
      input = last->sys->generator().build_input();
      reference = time_passes(sc.core.algorithm, input, 1, 1.0);
      ++out.attempted;
      if (!reference.error.empty()) {
        ++out.failed;
        out.fail(reference.error);
      }
      sampler.alg =
          sched::AlgorithmRegistry::instance().create(sc.core.algorithm);
      sampler.placement_hash = reference.placement_hash;
      sampler.input = &input;
    }
    if (reps.size() >= 64) break;
  }
  ++out.attempted;  // the reference-input passes between slices
  if (!sampler.errors.empty()) {
    ++out.failed;
    out.fail(sampler.errors.front() + " (" +
             std::to_string(sampler.errors.size()) + " times)");
  }

  // ---------------------------------------------------------- correctness
  out.attempted += reps.size();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (!reps[i].violations.empty()) {
      ++out.failed;
      for (const auto& v : reps[i].violations) {
        out.fail("repetition " + std::to_string(i) + ": " + v);
      }
    }
  }
  const std::string digest = reps.front().digest();
  out.notes.push_back("digest " + opt.workload + " seed " +
                      std::to_string(opt.seed) + ": " + digest);
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].digest() != digest) {
      out.fail("repetition " + std::to_string(i) +
               (reps[i].traced ? " (traced)" : "") +
               " disagrees with repetition 0 of the same seed: " +
               reps[i].digest());
    }
  }

  const HostTimes host = least_disturbed(reps);
  double tail_pct = 0;
  const double tail_ms = tail_percentile(host.pass_ms, 10, &tail_pct);
  char note[320];
  std::snprintf(note, sizeof note,
                "sched passes kept: %zu over %zu executors / %zu nodes, p50 "
                "%.4f ms, p%.0f %.4f ms; set-up positions %zu; repetitions %zu",
                host.pass_ms.size(), input.executors.size(),
                input.nodes.size(), median(host.pass_ms), tail_pct, tail_ms,
                host.setup_s.size(), reps.size());
  out.notes.push_back(note);

  std::string walls = "simulated-run host seconds per repetition:";
  for (const Rep& r : reps) {
    std::snprintf(note, sizeof note, " %.3f%s", r.run_s, r.traced ? "t" : "");
    walls += note;
  }
  std::snprintf(note, sizeof note, "; least disturbed per slice: %.3f",
                host.horizon_s);
  out.notes.push_back(walls + note);

  const Rep& r0 = reps.front();
  const double trees = static_cast<double>(r0.completed);
  const double trees_per_wall_s = trees / host.horizon_s;
  const double sim_s_per_wall_s = sc.horizon / host.horizon_s;
  if (!opt.trace) {
    // --------------------------------------------------- end-to-end metrics
    // Simulator speed is printed here and gated per layer only: on a
    // shared host a whole run can fall into a slow spell (README.md).
    std::snprintf(note, sizeof note,
                  "simulator speed: trees_per_wall_s %.1f, sim_s_per_wall_s "
                  "%.2f",
                  trees_per_wall_s, sim_s_per_wall_s);
    out.notes.push_back(note);
    Metrics& m = out.metrics;
    add(m, "setup_s", median(host.setup_s), "s");
    add(m, "peak_rss_mb", rss_mb, "MB");
    add(m, "sim_proc_ms", r0.proc_ms, "ms");
    add(m, "sim_p99_ms", r0.p99_ms, "ms");
    add(m, "acked_ratio",
        per(trees, static_cast<double>(r0.completed + r0.failed)), "ratio");
    add(m, "internode_mb_per_sim_s",
        static_cast<double>(r0.links[2].bytes) / 1e6 / sc.horizon, "MB/s");
    add(m, "energy_kwh", r0.energy_kwh, "kWh");
    add(m, "sched_internode_traffic", reference.internode_traffic,
        "tuples/s");
    return out;
  }

  // ------------------------------------------------------ per-layer metrics
  const MicroResults micro = run_microbenches(spans, opt.seed, sc.uses_text);
  std::vector<double> untraced_s, traced_s;
  const Rep* tr = nullptr;
  for (const Rep& r : reps) {
    (r.traced ? traced_s : untraced_s).push_back(r.run_s);
    if (r.traced && tr == nullptr) tr = &r;
  }
  Metrics& m = out.metrics;
  add(m, "sim.trees_per_wall_s", trees_per_wall_s, "1/s");
  add(m, "sim.sim_s_per_wall_s", sim_s_per_wall_s, "s/s");
  add(m, "sim.events_per_tree", per(static_cast<double>(r0.events), trees),
      "events");
  add(m, "sim.ns_per_event",
      per(tr->slice_self_s * 1e9, static_cast<double>(tr->events)), "ns");
  add(m, "sim.pending_peak", static_cast<double>(r0.pending_peak), "events");
  add(m, "sim.schedule_run_ns", micro.schedule_run_ns, "ns");
  std::uint64_t wire = 0;
  for (int i = 0; i < 3; ++i) {
    add(m, std::string("net.msgs_per_tree.") + kLinkNames[i],
        per(static_cast<double>(r0.links[i].messages), trees), "msgs");
    add(m, std::string("net.send_ns.") + kLinkNames[i], micro.send_ns[i],
        "ns");
    wire += r0.links[i].bytes;
  }
  add(m, "net.wire_kb_per_tree", per(static_cast<double>(wire) / 1024, trees),
      "KiB");
  add(m, "net.dropped",
      static_cast<double>(r0.links[0].dropped + r0.links[1].dropped +
                          r0.links[2].dropped),
      "count");
  add(m, "topo.allocs_per_tree",
      per(static_cast<double>(tr->allocs_late),
          static_cast<double>(tr->completed_late)),
      "allocs");
  add(m, "topo.pool_blocks_carved", static_cast<double>(r0.pool_blocks),
      "count");
  add(m, "topo.pool_string_carved", static_cast<double>(r0.pool_strings),
      "count");
  add(m, "runtime.replays_per_tree",
      per(static_cast<double>(r0.replayed), trees), "replays");
  add(m, "runtime.failed_ratio",
      per(static_cast<double>(r0.failed),
          static_cast<double>(r0.completed + r0.failed)),
      "ratio");
  for (int i = 0; i < 5; ++i) {
    add(m, std::string("runtime.dropped.") + kCauseNames[i],
        static_cast<double>(r0.dropped[i]), "count");
  }
  add(m, "runtime.tracker_in_flight_peak",
      static_cast<double>(r0.in_flight_peak), "trees");
  add(m, "runtime.queue_depth_peak", static_cast<double>(tr->queue_depth_peak),
      "envelopes");
  add(m, "runtime.node_load_max", tr->node_load_max, "MHz");
  add(m, "flow.shed_total", static_cast<double>(r0.shed_total), "count");
  add(m, "flow.throttle_activations",
      static_cast<double>(r0.throttle_activations), "count");
  add(m, "state.checkpoints_completed", static_cast<double>(r0.ckpt_completed),
      "count");
  add(m, "state.checkpoint_success_ratio",
      per(static_cast<double>(r0.ckpt_completed),
          static_cast<double>(r0.ckpt_started)),
      "ratio");
  add(m, "state.snapshot_bytes", static_cast<double>(r0.snapshot_bytes), "B");
  add(m, "state.snapshot_sim_ms", r0.snapshot_sim_ms, "ms");
  add(m, "state.dedup_suppressed", static_cast<double>(r0.dedup_suppressed),
      "count");
  add(m, "state.snapshot_ns_per_key", micro.snapshot_ns_per_key, "ns");
  add(m, "state.time_to_restore_s", std::max(0.0, r0.time_to_restore), "s");
  add(m, "state.time_to_consistent_s", std::max(0.0, r0.time_to_consistent),
      "s");

  std::vector<double> build_ms;
  {
    ScopedSpan span(spans, "micro.core.build_input");
    for (int i = 0; i < 20; ++i) {
      const auto t0 = Clock::now();
      const auto again = last->sys->generator().build_input();
      build_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  add(m, "core.generations", static_cast<double>(r0.generations), "count");
  add(m, "core.publish_ratio",
      per(static_cast<double>(r0.publishes),
          static_cast<double>(r0.generations)),
      "ratio");
  add(m, "core.overload_triggers", static_cast<double>(r0.overload_triggers),
      "count");
  add(m, "core.build_input_ms", median(build_ms), "ms");
  add(m, "core.node_seconds", r0.node_seconds, "s");

  // In-run passes (generator and recovery), then every algorithm the fleet
  // compares over the reference input.
  add(m, "sched.passes", static_cast<double>(tr->inrun_pass_ms.size()),
      "count");
  add(m, "sched.inrun_pass_ms", median(tr->inrun_pass_ms), "ms");
  std::uint64_t relaxed = tr->inrun_relaxed + (reference.relaxed ? 1 : 0);
  // Host time of passes over one input: per layer only, see README.md.
  add(m, "sched.pass_ms.traffic-aware", median(host.pass_ms), "ms");
  add(m, "sched.pass_tail_ms", tail_ms, "ms");
  add(m, "sched.internode_traffic.traffic-aware", reference.internode_traffic,
      "tuples/s");
  for (const char* name :
       {"rstorm", "aniello-online", "round-robin", "local-search"}) {
    const bool reduce = sc.fleet && std::string(name) == "local-search";
    const int span = spans.begin(std::string("micro.sched.") + name);
    const PassStats ps = time_passes(name, reduce ? quarter(input) : input,
                                     sc.fleet ? 20 : 200, 2.0);
    spans.end(span);
    ++out.attempted;
    if (!ps.error.empty()) {
      ++out.failed;
      out.fail(ps.error);
    }
    relaxed += ps.relaxed ? 1 : 0;
    add(m, std::string("sched.pass_ms.") + name, median(ps.ms), "ms");
    add(m, std::string("sched.internode_traffic.") + name,
        ps.internode_traffic, "tuples/s");
  }
  add(m, "sched.relaxed", static_cast<double>(relaxed), "count");
  add(m, "workload.textgen_ns_per_line", micro.textgen_ns_per_line, "ns");
  add(m, "workload.queue_backlog_end", static_cast<double>(r0.backlog_end),
      "lines");
  const double untraced = median(untraced_s);
  add(m, "obs.trace_overhead_pct",
      per(100.0 * (median(traced_s) - untraced), untraced), "%");

  std::filesystem::create_directories(opt.trace_dir);
  const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  if (spans.write_chrome_json(path)) {
    out.notes.push_back("spans written to " + path);
  } else {
    out.fail("could not write " + path);
  }
  std::snprintf(note, sizeof note,
                "repetitions %zu untraced / %zu traced; traced slice self "
                "time %.3f s of %.3f s simulated-run host time",
                untraced_s.size(), traced_s.size(), tr->slice_self_s,
                tr->run_s);
  out.notes.push_back(note);
  return out;
}

}  // namespace perfbench
