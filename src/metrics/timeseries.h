// Windowed time series. The paper reports 1-minute averages of tuple
// processing time (instead of Storm UI's 10-minute averages); WindowedSeries
// implements exactly that aggregation, plus means over whole-second
// intervals for the paper's "after stabilization" figures. Storage grows
// with the simulated horizon, never with the number of observations.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/simulation.h"

namespace tstorm::metrics {

/// Aggregates (time, value) observations into fixed-width windows and
/// 1-second ticks. Observations before t=0 count in the first window and
/// tick.
class WindowedSeries {
 public:
  explicit WindowedSeries(sim::Time window = 60.0);

  void add(sim::Time t, double value);

  /// Resolution of mean_between: one (count, sum) tick per second.
  static constexpr sim::Time kTick = 1.0;

  /// Pre-sizes storage for a run of the given horizon, so recording any
  /// number of observations inside it never reallocates (benchmarks
  /// asserting a zero-alloc hot path call this up front).
  void reserve(sim::Time horizon) {
    windows_.reserve(static_cast<std::size_t>(horizon / width_) + 2);
    ticks_.reserve(static_cast<std::size_t>(horizon / kTick) + 2);
  }

  struct Window {
    sim::Time start = 0;  // window covers [start, start + width)
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  [[nodiscard]] sim::Time window_width() const { return width_; }

  /// All windows from t=0 through the last observation; empty windows are
  /// materialized (count==0) so series align across runs.
  [[nodiscard]] const std::vector<Window>& windows() const { return windows_; }

  /// Mean of all observations with time in [floor(from), ceil(to)), at
  /// kTick resolution; nullopt if none. For whole-second bounds this is
  /// exactly the observations in [from, to); fractional bounds widen
  /// outward to whole seconds. Used for the paper's "counting measurements
  /// after stabilization".
  [[nodiscard]] std::optional<double> mean_between(sim::Time from,
                                                   sim::Time to) const;

  /// Total observation count.
  [[nodiscard]] std::uint64_t total_count() const { return total_count_; }

 private:
  Window& window_for(sim::Time t);

  sim::Time width_;
  std::vector<Window> windows_;
  std::uint64_t total_count_ = 0;
  // Per-second sums for mean_between: window-granular would bias the
  // stabilized means the paper quotes, per-observation would grow with
  // the run's tree count.
  struct Tick {
    std::uint64_t count = 0;
    double sum = 0;
  };
  std::vector<Tick> ticks_;
};

/// Counts events per window (e.g. failed tuples, Fig. 3(b)).
class WindowedCounter {
 public:
  explicit WindowedCounter(sim::Time window = 60.0);

  void add(sim::Time t, std::uint64_t n = 1);

  /// Pre-sizes the window vector for a run of the given horizon.
  void reserve(sim::Time horizon) {
    windows_.reserve(static_cast<std::size_t>(horizon / width_) + 2);
  }

  struct Window {
    sim::Time start = 0;
    std::uint64_t count = 0;
  };

  [[nodiscard]] const std::vector<Window>& windows() const { return windows_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t count_between(sim::Time from, sim::Time to) const;

 private:
  sim::Time width_;
  std::vector<Window> windows_;
  std::uint64_t total_ = 0;
};

}  // namespace tstorm::metrics
