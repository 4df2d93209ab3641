#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>
#include <utility>
#include <vector>

#include "metrics/completion.h"
#include "metrics/ewma.h"
#include "metrics/reporter.h"
#include "metrics/timeseries.h"
#include "sim/rng.h"

// Counts heap allocations in this test binary, for the bounded-storage
// check below.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
// Out of line, so GCC does not inline free() into call sites where it can
// see the pointer came from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tstorm::metrics {
namespace {

// ------------------------------------------------------------------ Ewma

TEST(Ewma, FirstSampleSeedsDirectly) {
  Ewma e(0.5);
  EXPECT_FALSE(e.seeded());
  e.update(10.0);
  EXPECT_TRUE(e.seeded());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, PaperFormula) {
  // Y = alpha*Y + (1-alpha)*S with alpha = 0.5 (Table II).
  Ewma e(0.5);
  e.update(10.0);
  e.update(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
  e.update(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.5);
}

TEST(Ewma, SmallAlphaIsMoreSensitive) {
  Ewma sluggish(0.9), sensitive(0.1);
  sluggish.update(0.0);
  sensitive.update(0.0);
  sluggish.update(100.0);
  sensitive.update(100.0);
  EXPECT_LT(sluggish.value(), sensitive.value());
  EXPECT_DOUBLE_EQ(sensitive.value(), 90.0);
}

TEST(Ewma, AlphaOneNeverMoves) {
  Ewma e(1.0);
  e.update(5.0);
  e.update(500.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(Ewma, ResetClears) {
  Ewma e(0.5);
  e.update(3.0);
  e.reset();
  EXPECT_FALSE(e.seeded());
  e.update(7.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.0);
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma e(0.5);
  for (int i = 0; i < 50; ++i) e.update(42.0);
  EXPECT_NEAR(e.value(), 42.0, 1e-9);
}

// --------------------------------------------------------- WindowedSeries

TEST(WindowedSeries, ObservationsLandInCorrectWindow) {
  WindowedSeries s(60.0);
  s.add(10.0, 1.0);
  s.add(59.9, 3.0);
  s.add(60.0, 5.0);
  ASSERT_EQ(s.windows().size(), 2u);
  EXPECT_EQ(s.windows()[0].count, 2u);
  EXPECT_DOUBLE_EQ(s.windows()[0].mean(), 2.0);
  EXPECT_EQ(s.windows()[1].count, 1u);
  EXPECT_DOUBLE_EQ(s.windows()[1].mean(), 5.0);
}

TEST(WindowedSeries, EmptyWindowsMaterialized) {
  WindowedSeries s(60.0);
  s.add(10.0, 1.0);
  s.add(200.0, 2.0);
  ASSERT_EQ(s.windows().size(), 4u);
  EXPECT_EQ(s.windows()[1].count, 0u);
  EXPECT_EQ(s.windows()[2].count, 0u);
  EXPECT_DOUBLE_EQ(s.windows()[1].start, 60.0);
}

TEST(WindowedSeries, MinMaxTracked) {
  WindowedSeries s(60.0);
  s.add(1.0, 5.0);
  s.add(2.0, -1.0);
  s.add(3.0, 10.0);
  EXPECT_DOUBLE_EQ(s.windows()[0].min, -1.0);
  EXPECT_DOUBLE_EQ(s.windows()[0].max, 10.0);
}

TEST(WindowedSeries, MeanBetweenExact) {
  WindowedSeries s(60.0);
  s.add(10.0, 1.0);
  s.add(70.0, 2.0);
  s.add(130.0, 6.0);
  EXPECT_DOUBLE_EQ(s.mean_between(0.0, 200.0).value(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean_between(60.0, 200.0).value(), 4.0);
  EXPECT_FALSE(s.mean_between(300.0, 400.0).has_value());
}

TEST(WindowedSeries, MeanBetweenHalfOpen) {
  WindowedSeries s(60.0);
  s.add(100.0, 7.0);
  EXPECT_TRUE(s.mean_between(100.0, 100.1).has_value());
  EXPECT_FALSE(s.mean_between(99.0, 100.0).has_value());
}

TEST(WindowedSeries, MeanBetweenMatchesBruteForceOnWholeSeconds) {
  // Values are multiples of 1/8 well below 2^53, so every partial sum is
  // exact and the tick sums must equal a brute-force scan bit for bit.
  sim::Rng rng(42);
  WindowedSeries s(60.0);
  std::vector<std::pair<double, double>> points;
  for (int i = 0; i < 5000; ++i) {
    double t = static_cast<double>(rng.uniform_int(0, 299));
    if (rng.bernoulli(0.8)) t += rng.uniform();  // else exactly on a tick
    const double v = static_cast<double>(rng.uniform_int(0, 8000)) / 8.0;
    s.add(t, v);
    points.emplace_back(t, v);
  }
  for (int q = 0; q < 500; ++q) {
    auto from = static_cast<double>(rng.uniform_int(-5, 310));
    auto to = static_cast<double>(rng.uniform_int(-5, 310));
    if (from > to) std::swap(from, to);
    double sum = 0;
    std::uint64_t n = 0;
    for (const auto& [t, v] : points) {
      if (t >= from && t < to) {
        sum += v;
        ++n;
      }
    }
    const auto got = s.mean_between(from, to);
    ASSERT_EQ(got.has_value(), n > 0) << from << " " << to;
    if (n > 0) {
      EXPECT_DOUBLE_EQ(*got, sum / static_cast<double>(n))
          << from << " " << to;
    }
  }
}

TEST(WindowedSeries, MeanBetweenWidensFractionalBounds) {
  WindowedSeries s(60.0);
  s.add(10.2, 1.0);
  s.add(11.5, 3.0);
  s.add(12.0, 5.0);
  // [10.9, 11.6) widens to [10, 12): the 10.2 observation counts, the one
  // at 12.0 does not.
  EXPECT_DOUBLE_EQ(s.mean_between(10.9, 11.6).value(), 2.0);
  EXPECT_DOUBLE_EQ(s.mean_between(11.0, 12.0).value(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean_between(11.0, 12.5).value(), 4.0);
}

TEST(WindowedSeries, ReservedStorageIsBoundedByHorizon) {
  constexpr double kHorizon = 1000.0;
  constexpr int kAdds = 1'000'000;
  WindowedSeries s(60.0);
  s.reserve(kHorizon);
  const auto before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i <= kAdds; ++i) s.add(kHorizon * i / kAdds, 1.0);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(s.total_count(), static_cast<std::uint64_t>(kAdds) + 1);
  EXPECT_DOUBLE_EQ(s.mean_between(0, kHorizon + 1).value(), 1.0);
}

TEST(WindowedSeries, TotalCount) {
  WindowedSeries s(1.0);
  for (int i = 0; i < 17; ++i) s.add(i * 0.1, 1.0);
  EXPECT_EQ(s.total_count(), 17u);
}

TEST(WindowedSeries, NegativeTimesClampToFirstWindow) {
  WindowedSeries s(60.0);
  s.add(-5.0, 2.0);
  EXPECT_EQ(s.windows()[0].count, 1u);
}

// -------------------------------------------------------- WindowedCounter

TEST(WindowedCounter, CountsPerWindow) {
  WindowedCounter c(60.0);
  c.add(10.0);
  c.add(20.0, 4);
  c.add(70.0);
  EXPECT_EQ(c.windows()[0].count, 5u);
  EXPECT_EQ(c.windows()[1].count, 1u);
  EXPECT_EQ(c.total(), 6u);
}

TEST(WindowedCounter, CountBetweenWholeWindowsOnly) {
  WindowedCounter c(60.0);
  c.add(10.0, 2);
  c.add(70.0, 3);
  c.add(130.0, 5);
  EXPECT_EQ(c.count_between(0.0, 120.0), 5u);
  EXPECT_EQ(c.count_between(60.0, 180.0), 8u);
}

// ------------------------------------------------------ CompletionRecorder

TEST(CompletionRecorder, RecordsProcessingTimeInMs) {
  CompletionRecorder r(60.0);
  r.record_completion(1.0, 1.005, false);  // 5 ms
  EXPECT_EQ(r.total_completed(), 1u);
  EXPECT_EQ(r.total_late(), 0u);
  EXPECT_NEAR(r.proc_time_ms().windows()[0].mean(), 5.0, 1e-9);
}

TEST(CompletionRecorder, LateAcksCounted) {
  CompletionRecorder r(60.0);
  r.record_completion(0.0, 45.0, true);
  EXPECT_EQ(r.total_completed(), 1u);
  EXPECT_EQ(r.total_late(), 1u);
}

TEST(CompletionRecorder, FailuresDropsReplays) {
  CompletionRecorder r(60.0);
  r.record_failure(30.0);
  r.record_failure(90.0);
  r.record_drop(5.0);
  r.record_replay(31.0);
  EXPECT_EQ(r.total_failed(), 2u);
  EXPECT_EQ(r.total_dropped(), 1u);
  EXPECT_EQ(r.total_replayed(), 1u);
  EXPECT_EQ(r.failures().windows()[0].count, 1u);
  EXPECT_EQ(r.failures().windows()[1].count, 1u);
}

TEST(CompletionRecorder, CompletionIndexedByAckTime) {
  CompletionRecorder r(60.0);
  r.record_completion(59.0, 61.0, false);  // acked in second window
  EXPECT_EQ(r.proc_time_ms().windows().size(), 2u);
  EXPECT_EQ(r.proc_time_ms().windows()[1].count, 1u);
}

// --------------------------------------------------------------- Reporter

TEST(Reporter, FormatsMs) {
  EXPECT_EQ(format_ms(1.23456), "1.23");
  EXPECT_EQ(format_ms(1.23456, 4), "1.2346");
  EXPECT_EQ(format_ms(std::nan("")), "-");
}

TEST(Reporter, TableHasHeaderAndRows) {
  WindowedSeries a(60.0), b(60.0);
  a.add(10.0, 1.0);
  a.add(70.0, 2.0);
  b.add(70.0, 4.0);
  std::ostringstream os;
  print_series_table(os, {{"Storm", &a}, {"T-Storm", &b}}, 600.0);
  const auto out = os.str();
  EXPECT_NE(out.find("Storm"), std::string::npos);
  EXPECT_NE(out.find("T-Storm"), std::string::npos);
  EXPECT_NE(out.find("1.00"), std::string::npos);
  EXPECT_NE(out.find("4.00"), std::string::npos);
}

TEST(Reporter, CsvShape) {
  WindowedSeries a(60.0);
  a.add(10.0, 1.5);
  std::ostringstream os;
  write_series_csv(os, {{"x", &a}}, 600.0);
  EXPECT_EQ(os.str(), "time_s,x\n60,1.50\n");
}

TEST(Reporter, TableRespectsHorizon) {
  WindowedSeries a(60.0);
  a.add(10.0, 1.0);
  a.add(1000.0, 2.0);
  std::ostringstream os;
  print_series_table(os, {{"x", &a}}, 120.0);
  EXPECT_EQ(os.str().find("2.00"), std::string::npos);
}

}  // namespace
}  // namespace tstorm::metrics
