// Core event-engine benchmark: measures raw events/sec of the discrete-event
// simulator hot paths, independent of any scheduling logic. Four figures:
//
//   schedule_run    — steady-state schedule+execute cycle with a standing
//                     population of events and a 32-byte capture (the size
//                     class of a network-delivery closure).
//   schedule_cancel — schedule / O(1)-cancel / drain round-trips (the
//                     tuple-timeout pattern: most timeouts are cancelled).
//   periodic_tick   — PeriodicTask re-arm loop (daemon heartbeats).
//   wordcount_e2e   — full word-count topology end to end; reports
//                     simulated-seconds per wall-second.
//
// Emits BENCH_core.json so the perf trajectory is tracked across PRs; run
// via scripts/bench_smoke.sh. The binary overrides global operator new to
// count heap allocations: with --assert-zero-alloc it exits nonzero if the
// schedule_run steady state allocates at all (the allocation-free guarantee
// of sim::InlineFn + the slot-map queue).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "core/system.h"
#include "sim/simulation.h"
#include "workload/external_queue.h"
#include "workload/topologies.h"

// ------------------------------------------------------------------------
// Global allocation counter. Relaxed atomics: the sim is single-threaded,
// the atomic only guards against surprise library threads.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Figure {
  std::string name;
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  double allocs_per_event = 0;
  // wordcount only:
  double sim_seconds = 0;
  double sim_s_per_wall_s = 0;
  std::uint64_t completed = 0;
};

// ---------------------------------------------------------------- figure 1
// Self-perpetuating event population: each event schedules one successor
// while spawn budget remains, so the queue depth stays ~kPopulation and the
// engine sits in its steady schedule/pop/execute cycle.
struct Payload {
  std::uint64_t a = 1, b = 2, c = 3;  // freight: 24 B + context pointer = 32 B
};

struct PumpCtx {
  tstorm::sim::Simulation* sim = nullptr;
  std::uint64_t executed = 0;
  std::uint64_t spawn_budget = 0;
  std::uint64_t sink = 0;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;

  double step() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return 1e-6 * (1.0 + static_cast<double>(lcg >> 60));
  }
};

void pump(PumpCtx* ctx, const Payload& p) {
  ++ctx->executed;
  ctx->sink += p.a ^ p.b ^ p.c;
  if (ctx->spawn_budget > 0) {
    --ctx->spawn_budget;
    Payload q = p;
    q.a += ctx->executed;
    ctx->sim->schedule_after(ctx->step(), [ctx, q] { pump(ctx, q); });
  }
}

Figure bench_schedule_run(std::uint64_t measured_events) {
  constexpr std::uint64_t kPopulation = 1024;
  tstorm::sim::Simulation sim;
  PumpCtx ctx;
  ctx.sim = &sim;

  auto seed = [&] {
    for (std::uint64_t i = 0; i < kPopulation; ++i) {
      Payload p;
      p.b = i;
      sim.schedule_after(ctx.step(), [c = &ctx, p] { pump(c, p); });
    }
  };

  // Warm-up: reach capacity steady state (slot map, heap, freelists).
  seed();
  ctx.spawn_budget = 4 * kPopulation;
  sim.run();

  seed();
  ctx.spawn_budget = measured_events;
  ctx.executed = 0;
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  sim.run();
  const double wall = seconds_since(t0);
  const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);

  Figure f;
  f.name = "schedule_run";
  f.events = ctx.executed;
  f.wall_s = wall;
  f.events_per_sec = static_cast<double>(ctx.executed) / wall;
  f.allocs_per_event = static_cast<double>(allocs1 - allocs0) /
                       static_cast<double>(ctx.executed);
  return f;
}

// ---------------------------------------------------------------- figure 2
// The tuple-timeout pattern: arm an event in the future, cancel it before
// it fires, let the engine reclaim the dead entry. One "event" here is one
// schedule+cancel+drain round trip.
Figure bench_schedule_cancel(std::uint64_t pairs) {
  constexpr std::uint64_t kBatch = 512;
  tstorm::sim::Simulation sim;
  std::vector<tstorm::sim::EventId> ids(kBatch);
  std::uint64_t sink = 0;

  auto round = [&] {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      const Payload p{i, i + 1, i + 2};
      ids[i] = sim.schedule_after(
          1e-3 + static_cast<double>(i) * 1e-6, [&sink, p] { sink += p.a; });
    }
    for (std::uint64_t i = 0; i < kBatch; ++i) sim.cancel(ids[i]);
    sim.run();  // drains the dead entries; executes nothing
  };

  const std::uint64_t rounds = (pairs + kBatch - 1) / kBatch;
  round();  // warm-up

  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) round();
  const double wall = seconds_since(t0);
  const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);

  Figure f;
  f.name = "schedule_cancel";
  f.events = rounds * kBatch;
  f.wall_s = wall;
  f.events_per_sec = static_cast<double>(f.events) / wall;
  f.allocs_per_event =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(f.events);
  if (sink == 0xdead) std::cout << "";  // keep the sink alive
  return f;
}

// ---------------------------------------------------------------- figure 3
Figure bench_periodic_tick(std::uint64_t ticks) {
  tstorm::sim::Simulation sim;
  std::uint64_t count = 0;
  tstorm::sim::PeriodicTask task(sim, 1e-3, [&count] { ++count; });
  task.start(1e-3);
  sim.run_until(0.2);  // warm-up

  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  sim.run_until(sim.now() + static_cast<double>(ticks) * 1e-3);
  const double wall = seconds_since(t0);
  const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);
  task.stop();

  Figure f;
  f.name = "periodic_tick";
  f.events = ticks;
  f.wall_s = wall;
  f.events_per_sec = static_cast<double>(ticks) / wall;
  f.allocs_per_event =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(ticks);
  return f;
}

// ---------------------------------------------------------------- figure 4
Figure bench_wordcount(double sim_duration) {
  namespace wl = tstorm::workload;
  tstorm::sim::Simulation sim;
  tstorm::core::StormSystem storm(sim);
  auto wc = wl::make_word_count();
  wl::QueueProducer producer(sim, *wc.queue, /*rate=*/260.0);
  producer.start();
  storm.submit(std::move(wc.topology));

  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  sim.run_until(sim_duration);
  const double wall = seconds_since(t0);
  const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);

  Figure f;
  f.name = "wordcount_e2e";
  f.events = sim.events_executed();
  f.wall_s = wall;
  f.events_per_sec = static_cast<double>(f.events) / wall;
  f.allocs_per_event =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(f.events);
  f.sim_seconds = sim_duration;
  f.sim_s_per_wall_s = sim_duration / wall;
  f.completed = storm.cluster().completion().total_completed();
  return f;
}

// ---------------------------------------------------------------- figure 5
// Steady-state word count: a sustainable line rate and a vocabulary small
// enough that every word (and so every map entry, pool buffer and queue
// high-water mark) is seen during warm-up. After warm-up the entire tuple
// path — pooled tuples, intrusive refcounts, flat-map acker/tracker state,
// ring-buffer queues, reserved metrics — must perform ZERO heap
// allocations; --assert-zero-alloc gates on it.
Figure bench_wordcount_steady(double warmup_s, double measure_s) {
  namespace wl = tstorm::workload;
  tstorm::sim::Simulation sim;
  tstorm::core::StormSystem storm(sim);
  wl::WordCountOptions opt;
  opt.text.vocabulary = 512;  // tail words all appear during warm-up
  auto wc = wl::make_word_count(opt);
  wl::QueueProducer producer(sim, *wc.queue, /*rate=*/150.0);
  producer.start();
  storm.submit(std::move(wc.topology));
  // Metrics storage is pre-sized for the whole run: recording completions
  // is part of the steady state, growing their vectors is not.
  const double horizon = warmup_s + measure_s;
  storm.cluster().completion().reserve(horizon);

  sim.run_until(warmup_s);
  const std::uint64_t events0 = sim.events_executed();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  sim.run_until(horizon);
  const double wall = seconds_since(t0);
  const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t events = sim.events_executed() - events0;

  Figure f;
  f.name = "wordcount_steady";
  f.events = events;
  f.wall_s = wall;
  f.events_per_sec = static_cast<double>(events) / wall;
  f.allocs_per_event =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(events);
  f.sim_seconds = measure_s;
  f.sim_s_per_wall_s = measure_s / wall;
  f.completed = storm.cluster().completion().total_completed();
  return f;
}

// ------------------------------------------------------------------- main
void write_json(const std::string& path, const std::string& label,
                const std::vector<Figure>& figures) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"core_event_bench\",\n";
  out << "  \"label\": \"" << label << "\",\n";
  const std::time_t now = std::time(nullptr);
  char stamp[64];
  std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                std::gmtime(&now));
  out << "  \"timestamp\": \"" << stamp << "\",\n";
  out << "  \"results\": {\n";
  for (std::size_t i = 0; i < figures.size(); ++i) {
    const Figure& f = figures[i];
    out << "    \"" << f.name << "\": {\"events\": " << f.events
        << ", \"wall_s\": " << f.wall_s
        << ", \"events_per_sec\": " << f.events_per_sec
        << ", \"allocs_per_event\": " << f.allocs_per_event;
    if (f.name == "wordcount_e2e" || f.name == "wordcount_steady") {
      out << ", \"sim_seconds\": " << f.sim_seconds
          << ", \"sim_s_per_wall_s\": " << f.sim_s_per_wall_s
          << ", \"completed\": " << f.completed;
    }
    out << "}" << (i + 1 < figures.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_core.json";
  std::string label = "current";
  bool quick = false;
  bool assert_zero_alloc = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--assert-zero-alloc") {
      assert_zero_alloc = true;
    } else {
      std::cerr << "usage: core_event_bench [--out FILE] [--label NAME] "
                   "[--quick] [--assert-zero-alloc]\n";
      return 2;
    }
  }

  std::vector<Figure> figures;
  figures.push_back(bench_schedule_run(quick ? 500'000 : 3'000'000));
  figures.push_back(bench_schedule_cancel(quick ? 100'000 : 400'000));
  figures.push_back(bench_periodic_tick(quick ? 300'000 : 2'000'000));
  figures.push_back(bench_wordcount(quick ? 60.0 : 300.0));
  figures.push_back(
      bench_wordcount_steady(/*warmup_s=*/60.0, quick ? 30.0 : 240.0));

  std::cout << "core_event_bench (" << (quick ? "quick" : "full")
            << ", label=" << label << ")\n";
  for (const Figure& f : figures) {
    std::printf("  %-16s %12llu events  %8.3f s  %12.0f ev/s  %6.3f allocs/ev",
                f.name.c_str(), static_cast<unsigned long long>(f.events),
                f.wall_s, f.events_per_sec, f.allocs_per_event);
    if (f.name == "wordcount_e2e" || f.name == "wordcount_steady") {
      std::printf("  %8.1f sim-s/wall-s", f.sim_s_per_wall_s);
    }
    std::printf("\n");
  }

  write_json(out_path, label, figures);
  std::cout << "wrote " << out_path << "\n";

  if (assert_zero_alloc) {
    for (const Figure& f : figures) {
      if (f.name != "schedule_run" && f.name != "wordcount_steady") continue;
      if (f.allocs_per_event > 0.0) {
        std::cerr << "FAIL: " << f.name << " steady state performed "
                  << f.allocs_per_event
                  << " heap allocations per event (expected 0)\n";
        return 1;
      }
    }
  }
  return 0;
}
