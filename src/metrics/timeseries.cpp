#include "metrics/timeseries.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tstorm::metrics {

WindowedSeries::WindowedSeries(sim::Time window) : width_(window) {
  assert(window > 0);
}

WindowedSeries::Window& WindowedSeries::window_for(sim::Time t) {
  const auto idx = static_cast<std::size_t>(std::max(0.0, t) / width_);
  while (windows_.size() <= idx) {
    Window w;
    w.start = static_cast<sim::Time>(windows_.size()) * width_;
    windows_.push_back(w);
  }
  return windows_[idx];
}

void WindowedSeries::add(sim::Time t, double value) {
  auto& w = window_for(t);
  if (w.count == 0) {
    w.min = value;
    w.max = value;
  } else {
    w.min = std::min(w.min, value);
    w.max = std::max(w.max, value);
  }
  ++w.count;
  w.sum += value;
  ++total_count_;
  const auto tick = static_cast<std::size_t>(std::max(0.0, t) / kTick);
  if (ticks_.size() <= tick) ticks_.resize(tick + 1);
  ++ticks_[tick].count;
  ticks_[tick].sum += value;
}

std::optional<double> WindowedSeries::mean_between(sim::Time from,
                                                   sim::Time to) const {
  // Clamp in floating point first: the bounds may lie far outside the run.
  const double ticks = static_cast<double>(ticks_.size());
  const auto lo = static_cast<std::size_t>(
      std::clamp(std::floor(from / kTick), 0.0, ticks));
  const auto hi = static_cast<std::size_t>(
      std::clamp(std::ceil(to / kTick), 0.0, ticks));
  double sum = 0;
  std::uint64_t n = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    sum += ticks_[i].sum;
    n += ticks_[i].count;
  }
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

WindowedCounter::WindowedCounter(sim::Time window) : width_(window) {
  assert(window > 0);
}

void WindowedCounter::add(sim::Time t, std::uint64_t n) {
  const auto idx = static_cast<std::size_t>(std::max(0.0, t) / width_);
  while (windows_.size() <= idx) {
    Window w;
    w.start = static_cast<sim::Time>(windows_.size()) * width_;
    windows_.push_back(w);
  }
  windows_[idx].count += n;
  total_ += n;
}

std::uint64_t WindowedCounter::count_between(sim::Time from,
                                             sim::Time to) const {
  std::uint64_t n = 0;
  for (const auto& w : windows_) {
    if (w.start >= from && w.start + width_ <= to) n += w.count;
  }
  return n;
}

}  // namespace tstorm::metrics
