// Shared declarations of the repository benchmark (see README.md).
//
// The benchmark drives the simulator library only through its public API:
// it builds systems with core::TStormSystem and workload::make_*, advances
// them with sim::Simulation::run_until in fixed slices, and reads the
// library's public counters. Every layer is measured from outside, by
// timing calls into that layer's public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Heap allocations made by the whole process so far (the benchmark
/// binary replaces global operator new to count them).
[[nodiscard]] std::uint64_t allocations();

/// Peak resident set size of the process, MB.
[[nodiscard]] double peak_rss_mb();

/// --------------------------------------------------------------- stats
[[nodiscard]] double median(std::vector<double> v);

/// The highest percentile of `v` that still has at least `tail` samples
/// above it (nearest-rank). `pct` receives the percentile used; with fewer
/// than tail+1 samples it is the maximum (pct = 100).
[[nodiscard]] double tail_percentile(std::vector<double> v, std::size_t tail,
                                     double* pct);

/// --------------------------------------------------------------- spans
/// In-memory span recorder for the traced run. Spans nest by call order:
/// a span begun while another is open becomes its child. Instant markers
/// carry the simulated time they were stamped at. Disabled recorders
/// record nothing and cost one branch per call.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open; == start for instants
    int parent = -1;
    bool instant = false;
    std::string args;  // JSON object body, e.g. "\"sim_s\": 12.5"
  };

  explicit SpanRecorder(bool enabled);
  // Callbacks (trace listener, timing wrappers) hold its address.
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its id (-1 when
  /// disabled).
  int begin(std::string name);
  void end(int id, std::string args = {});
  void instant(std::string name, std::string args);

  [[nodiscard]] std::int64_t duration_ns(int id) const;
  /// Duration minus the time covered by direct children.
  [[nodiscard]] std::int64_t self_ns(int id) const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_chrome_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name)
      : rec_(rec), id_(rec.begin(std::move(name))) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Wraps a scheduling algorithm to time every pass the system makes with
/// it; installed with ScheduleGenerator::set_algorithm in the traced run.
/// The wrapper reports the inner algorithm's name, so provenance and
/// placements are unchanged.
class TimedAlgorithm final : public tstorm::sched::ISchedulingAlgorithm {
 public:
  TimedAlgorithm(std::unique_ptr<tstorm::sched::ISchedulingAlgorithm> inner,
                 SpanRecorder& spans);

  tstorm::sched::ScheduleResult schedule(
      const tstorm::sched::SchedulerInput& input) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] const std::vector<double>& pass_ms() const {
    return pass_ms_;
  }
  [[nodiscard]] std::uint64_t relaxed() const { return relaxed_; }

 private:
  std::unique_ptr<tstorm::sched::ISchedulingAlgorithm> inner_;
  SpanRecorder& spans_;
  std::vector<double> pass_ms_;
  std::uint64_t relaxed_ = 0;
};

/// ------------------------------------------------------------- results
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_build/perfbench-traces";
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// Human-readable lines printed before the result (digests, sample
  /// counts, failed checks).
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// Names of every workload, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload for about opt.seconds of host time.
[[nodiscard]] Outcome run_workload(const Options& opt);

/// ---------------------------------------------------- scheduler passes
/// Times `passes` runs of a registry algorithm over one input; checks the
/// result contract (every executor placed, relaxation flags honest) and
/// that repeated passes place identically.
struct PassStats {
  std::vector<double> ms;
  double internode_traffic = 0;
  bool relaxed = false;
  std::uint64_t placement_hash = 0;
  std::string error;  // empty when every check passed
};
[[nodiscard]] PassStats time_passes(const std::string& algorithm,
                                    const tstorm::sched::SchedulerInput& in,
                                    int passes, double max_seconds);

[[nodiscard]] std::uint64_t hash_placement(
    const tstorm::sched::Placement& placement);

/// ------------------------------------------------------- microbenches
/// Each returns nanoseconds per operation, timed over a fixed amount of
/// work with the library's public API (and records its own span).
struct MicroResults {
  double schedule_run_ns = 0;
  double send_ns[3] = {0, 0, 0};  // net::LinkType order
  double textgen_ns_per_line = 0;
  double snapshot_ns_per_key = 0;
};
[[nodiscard]] MicroResults run_microbenches(SpanRecorder& spans,
                                            std::uint64_t seed,
                                            bool with_text);

}  // namespace perfbench
