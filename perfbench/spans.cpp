// Span recorder and the timing wrapper for scheduling passes.
#include <cstdio>
#include <fstream>
#include <utility>

#include "bench.h"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::begin(std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id, std::string args) {
  if (!enabled_ || id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  if (!args.empty()) s.args = std::move(args);
  // Spans close in LIFO order; tolerate an out-of-order close by removing
  // the id wherever it sits.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (*it == id) {
      open_.erase(std::next(it).base());
      break;
    }
  }
}

void SpanRecorder::instant(std::string name, std::string args) {
  if (!enabled_) return;
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = s.end_ns = now_ns();
  s.instant = true;
  s.args = std::move(args);
  spans_.push_back(std::move(s));
}

std::int64_t SpanRecorder::duration_ns(int id) const {
  if (id < 0) return 0;
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end_ns < 0 ? 0 : s.end_ns - s.start_ns;
}

std::int64_t SpanRecorder::self_ns(int id) const {
  if (id < 0) return 0;
  std::int64_t children = 0;
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == id && !spans_[i].instant) {
      children += duration_ns(static_cast<int>(i));
    }
  }
  return duration_ns(id) - children;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"pid\": 1, \"tid\": 1, ";
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, ",
                  static_cast<double>(s.start_ns) / 1e3);
    out << buf;
    if (s.instant) {
      out << "\"ph\": \"i\", \"s\": \"t\", ";
    } else {
      std::snprintf(buf, sizeof buf, "\"ph\": \"X\", \"dur\": %.3f, ",
                    static_cast<double>(duration_ns(static_cast<int>(i))) /
                        1e3);
      out << buf;
    }
    out << "\"args\": {\"id\": " << i << ", \"parent\": " << s.parent;
    std::snprintf(buf, sizeof buf, ", \"self_us\": %.3f",
                  static_cast<double>(self_ns(static_cast<int>(i))) / 1e3);
    out << buf;
    if (!s.args.empty()) out << ", " << s.args;
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

TimedAlgorithm::TimedAlgorithm(
    std::unique_ptr<tstorm::sched::ISchedulingAlgorithm> inner,
    SpanRecorder& spans)
    : inner_(std::move(inner)), spans_(spans) {}

tstorm::sched::ScheduleResult TimedAlgorithm::schedule(
    const tstorm::sched::SchedulerInput& input) {
  const int span = spans_.begin("sched.pass." + inner_->name());
  const auto t0 = Clock::now();
  auto result = inner_->schedule(input);
  pass_ms_.push_back(seconds_since(t0) * 1e3);
  if (result.count_relaxed || result.capacity_relaxed) ++relaxed_;
  spans_.end(span, "\"executors\": " + std::to_string(input.executors.size()));
  return result;
}

}  // namespace perfbench
