// CompletionRecorder: the evaluation's primary metric pipeline. Records the
// processing time of every root tuple (spout emission -> full ack), failed
// tuples (30 s timeout), late acks, and drop/replay counts. Mirrors the
// paper's measurement: 1-minute averages of average processing time. Only
// aggregates are kept (windows, 1-second ticks, a fixed-bin histogram), so
// memory is bounded by the simulated horizon, not by the tuple count.
#pragma once

#include <cstdint>

#include "metrics/histogram.h"
#include "metrics/timeseries.h"

namespace tstorm::metrics {

class CompletionRecorder {
 public:
  explicit CompletionRecorder(sim::Time window = 60.0)
      : proc_time_ms_(window), failures_(window), completions_(window) {}

  /// Records a fully acked root tuple. `late` marks tuples acked after
  /// their timeout already fired (they are also counted as failures).
  void record_completion(sim::Time emit_time, sim::Time ack_time, bool late);

  /// Records a tuple that hit its timeout.
  void record_failure(sim::Time t);

  /// Records a tuple/message dropped in flight (worker shut down, no route).
  void record_drop(sim::Time t);

  /// Records a replayed emission.
  void record_replay(sim::Time t);

  /// Pre-sizes the series for a run of `horizon` simulated seconds; any
  /// number of completions inside it then records without allocating
  /// (zero-alloc steady-state benches).
  void reserve(sim::Time horizon) {
    proc_time_ms_.reserve(horizon);
    failures_.reserve(horizon);
    completions_.reserve(horizon);
  }

  /// Average processing time (ms) per 1-minute window — the y-axis of the
  /// paper's Figs. 2, 3(a), 5, 6, 8, 9, 10.
  [[nodiscard]] const WindowedSeries& proc_time_ms() const {
    return proc_time_ms_;
  }

  /// Failed tuples per window — Fig. 3(b).
  [[nodiscard]] const WindowedCounter& failures() const { return failures_; }

  [[nodiscard]] const WindowedCounter& completions() const {
    return completions_;
  }

  /// Full-run latency distribution (percentiles over all completions).
  [[nodiscard]] const LatencyHistogram& latency_histogram() const {
    return histogram_;
  }

  [[nodiscard]] std::uint64_t total_completed() const {
    return total_completed_;
  }
  [[nodiscard]] std::uint64_t total_failed() const { return total_failed_; }
  [[nodiscard]] std::uint64_t total_late() const { return total_late_; }
  [[nodiscard]] std::uint64_t total_dropped() const { return total_dropped_; }
  [[nodiscard]] std::uint64_t total_replayed() const {
    return total_replayed_;
  }

 private:
  WindowedSeries proc_time_ms_;
  WindowedCounter failures_;
  WindowedCounter completions_;
  LatencyHistogram histogram_;
  std::uint64_t total_completed_ = 0;
  std::uint64_t total_failed_ = 0;
  std::uint64_t total_late_ = 0;
  std::uint64_t total_dropped_ = 0;
  std::uint64_t total_replayed_ = 0;
};

}  // namespace tstorm::metrics
