// State subsystem tests: StateStore keyed API + exactly-once dedup (with
// a brute-force oracle for the dedup log and its shared snapshot chunks),
// DurableStore two-phase (torn-snapshot) visibility, CheckpointCoordinator
// barrier rounds, and cluster-level integration — end-to-end checkpoints,
// crash mid-checkpoint, restore-on-reschedule, barrier alignment at a
// multi-input bolt, dedup drop attribution, and byte-identical determinism
// with checkpointing enabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/auditor.h"
#include "chaos/fault_plan.h"
#include "core/system.h"
#include "metrics/reporter.h"
#include "runtime/cluster.h"
#include "runtime/executor.h"
#include "state/checkpoint.h"
#include "state/durable_store.h"
#include "state/state_store.h"
#include "topo/builder.h"
#include "topo/tuple.h"
#include "workload/bolts.h"
#include "workload/external_queue.h"
#include "workload/topologies.h"
#include "support/alloc_count.h"

namespace tstorm::state {
namespace {

// ------------------------------------------------------------- StateStore

TEST(StateStore, PutGetIncrement) {
  StateStore s;
  EXPECT_EQ(s.get(topo::Value("a")), nullptr);
  s.put(topo::Value("a"), topo::Value(std::int64_t{7}));
  ASSERT_NE(s.get(topo::Value("a")), nullptr);
  EXPECT_EQ(s.get(topo::Value("a"))->as_int(), 7);

  EXPECT_EQ(s.increment(topo::Value("a")), 8);
  EXPECT_EQ(s.increment(topo::Value("a"), 2), 10);
  // Insert-at-zero for an absent key.
  EXPECT_EQ(s.increment(topo::Value("b")), 1);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_GT(s.bytes(), 0u);
}

TEST(StateStore, MixedKeyKinds) {
  StateStore s;
  s.put(topo::Value(std::int64_t{42}), topo::Value("answer"));
  s.put(topo::Value(3.5), topo::Value(std::int64_t{1}));
  s.put(topo::Value("42"), topo::Value(std::int64_t{2}));  // != int 42
  EXPECT_EQ(s.size(), 3u);
  ASSERT_NE(s.get(topo::Value(std::int64_t{42})), nullptr);
  EXPECT_EQ(s.get(topo::Value(std::int64_t{42}))->as_string(), "answer");
  EXPECT_EQ(s.get(topo::Value("42"))->as_int(), 2);
}

TEST(StateStore, ManyKeysSurviveGrowth) {
  StateStore s;
  for (int i = 0; i < 500; ++i) {
    s.put(topo::Value("key-" + std::to_string(i)),
          topo::Value(static_cast<std::int64_t>(i)));
  }
  EXPECT_EQ(s.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    const topo::Value* v = s.get(topo::Value("key-" + std::to_string(i)));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(v->as_int(), i);
  }
}

TEST(StateStore, DedupSuppressesAndRefreshes) {
  StateStore s;
  EXPECT_TRUE(s.dedup_insert(101, 1.0));
  EXPECT_TRUE(s.dedup_insert(202, 2.0));
  EXPECT_FALSE(s.dedup_insert(101, 5.0));  // duplicate, timestamp refreshed
  EXPECT_EQ(s.dedup_size(), 2u);

  // Sweep at horizon 4.0: path 101 was refreshed to t=5 and survives;
  // path 202 (t=2) is dropped. The refresh is what keeps a path alive as
  // long as attempts of its tree keep arriving.
  s.sweep_dedup(4.0);
  EXPECT_EQ(s.dedup_size(), 1u);
  EXPECT_FALSE(s.dedup_insert(101, 6.0));
  EXPECT_TRUE(s.dedup_insert(202, 6.0));  // swept, so it reads as new
}

TEST(StateStore, SnapshotRestoreRoundTrip) {
  StateStore s;
  s.put(topo::Value("w"), topo::Value(std::int64_t{3}));
  s.increment(topo::Value("x"), 9);
  ASSERT_TRUE(s.dedup_insert(77, 1.5));
  const Snapshot snap = s.snapshot();
  EXPECT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.dedup.size(), 1u);
  EXPECT_GT(snap.bytes, 0u);

  // Mutate past the snapshot, then restore: both halves (keyed entries
  // and dedup set) must revert together — the atomicity that keeps
  // "applied" and "remembered as applied" from splitting across a crash.
  s.increment(topo::Value("x"), 100);
  s.put(topo::Value("y"), topo::Value(std::int64_t{1}));
  ASSERT_TRUE(s.dedup_insert(88, 2.0));
  s.restore(snap);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.get(topo::Value("x"))->as_int(), 9);
  EXPECT_EQ(s.get(topo::Value("y")), nullptr);
  EXPECT_FALSE(s.dedup_insert(77, 3.0));
  EXPECT_TRUE(s.dedup_insert(88, 3.0));  // not in the snapshot
}

TEST(StateStore, ReplayModeSuppressesMutations) {
  // Replay mode is how the executor re-runs a dedup-suppressed duplicate:
  // the bolt's emissions happen, its state effects do not.
  StateStore s;
  s.increment(topo::Value("w"), 3);
  const std::uint64_t bytes_before = s.bytes();

  s.set_replay(true);
  EXPECT_TRUE(s.in_replay());
  // increment() reports the stored total (which already includes the
  // suppressed update) without mutating.
  EXPECT_EQ(s.increment(topo::Value("w"), 1), 3);
  // put() drops its value entirely.
  s.put(topo::Value("x"), topo::Value(std::int64_t{5}));
  // An absent key falls back to `by` (mirrors the original first apply).
  EXPECT_EQ(s.increment(topo::Value("absent")), 1);
  s.set_replay(false);

  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.bytes(), bytes_before);
  EXPECT_EQ(s.get(topo::Value("w"))->as_int(), 3);
  EXPECT_EQ(s.get(topo::Value("x")), nullptr);
  EXPECT_EQ(s.increment(topo::Value("w")), 4);  // mutations resume
}

TEST(StateStore, ByteAccountingDoesNotDrift) {
  // bytes_ is maintained incrementally across inserts, overwrites, and
  // type-changing updates; it must always equal what a freshly-built
  // store with the same final contents reports (it feeds Snapshot::bytes,
  // which drives simulated durable-write transmission time).
  StateStore s;
  EXPECT_EQ(s.bytes(), 0u);
  s.increment(topo::Value("k1"));  // fresh insert via increment
  // One entry: key + int value + per-entry framing overhead.
  EXPECT_EQ(s.bytes(), topo::value_bytes(topo::Value("k1")) + 8 + 16);
  s.increment(topo::Value("k1"), 5);
  s.put(topo::Value("k2"), topo::Value(std::int64_t{9}));
  s.put(topo::Value("k2"), topo::Value("a value too long to stay put"));
  s.increment(topo::Value("k2"));  // string -> int again
  s.put(topo::Value("k3"), topo::Value(1.5));

  StateStore fresh;
  s.for_each([&fresh](const topo::Value& k, const topo::Value& v) {
    fresh.put(k, v);
  });
  EXPECT_EQ(s.bytes(), fresh.bytes());
}

TEST(StateStore, LineagePathsAreStableAndNonZero) {
  // Same uid => same root path (replay attempts agree); child paths are
  // deterministic in (parent, ordinal) and never 0 (the dedup sentinel).
  EXPECT_EQ(root_path(42), root_path(42));
  EXPECT_NE(root_path(42), root_path(43));
  EXPECT_NE(root_path(42), 0u);
  const std::uint64_t p = root_path(42);
  EXPECT_EQ(child_path(p, 0), child_path(p, 0));
  EXPECT_NE(child_path(p, 0), child_path(p, 1));
  EXPECT_NE(child_path(p, 0), 0u);
}

TEST(StateStore, RestoreInReplayModeRestoresEveryKey) {
  // restore() writes the keyed slots directly: a store left in replay
  // mode (where put() is a no-op) must still come back whole, and leaves
  // replay mode — restore replaces the store's entire state.
  StateStore src;
  src.put(topo::Value("a"), topo::Value("alpha"));
  src.increment(topo::Value("b"), 4);
  ASSERT_TRUE(src.dedup_insert(5, 1.0));
  const Snapshot snap = src.snapshot();

  StateStore s;
  s.set_replay(true);
  s.restore(snap);
  EXPECT_FALSE(s.in_replay());
  EXPECT_EQ(s.size(), 2u);
  ASSERT_NE(s.get(topo::Value("a")), nullptr);
  EXPECT_EQ(s.get(topo::Value("a"))->as_string(), "alpha");
  ASSERT_NE(s.get(topo::Value("b")), nullptr);
  EXPECT_EQ(s.get(topo::Value("b"))->as_int(), 4);
  EXPECT_EQ(s.bytes(), src.bytes());
  EXPECT_FALSE(s.dedup_insert(5, 2.0));
}

/// Expects `snap` to hold exactly `ref`'s paths: restores it into a probe
/// store and asks for every path of the domain.
void expect_snapshot_holds(const Snapshot& snap,
                           const std::map<std::uint64_t, double>& ref,
                           std::uint64_t domain, double now) {
  StateStore probe;
  probe.restore(snap);
  ASSERT_EQ(probe.dedup_size(), ref.size());
  for (std::uint64_t p = 1; p <= domain; ++p) {
    ASSERT_EQ(probe.dedup_insert(p, now), !ref.contains(p)) << "path " << p;
  }
}

TEST(StateStore, DedupLogMatchesBruteForceOracle) {
  // Inserts (duplicates included) at non-decreasing times, sweeps at
  // arbitrary horizons, snapshots, and restores of saved snapshots into
  // fresh stores, against a path -> last-touched-time map.
  constexpr std::uint64_t kDomain = 400;
  std::mt19937_64 rng(2024);
  auto store = std::make_unique<StateStore>();
  std::map<std::uint64_t, double> ref;
  std::vector<std::pair<Snapshot, std::map<std::uint64_t, double>>> saved;
  double now = 0.0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng() % 100;
    if (op < 80) {
      now += 0.25 * static_cast<double>(rng() % 3);  // ties included
      const std::uint64_t path = 1 + rng() % kDomain;
      ASSERT_EQ(store->dedup_insert(path, now), !ref.contains(path))
          << "step " << step;
      ref[path] = now;
      if (rng() % 16 == 0) store->increment(topo::Value("k"));
    } else if (op < 92) {
      const double horizon = now - 0.25 * static_cast<double>(rng() % 200);
      store->sweep_dedup(horizon);
      std::erase_if(ref,
                    [horizon](const auto& e) { return e.second < horizon; });
    } else if (op < 98) {
      Snapshot snap = store->snapshot();
      ASSERT_EQ(snap.dedup.size(), ref.size());
      ASSERT_EQ(snap.bytes, store->bytes() + 16 * ref.size() + 32);
      expect_snapshot_holds(snap, ref, kDomain, now);
      if (saved.size() == 8) saved.erase(saved.begin());
      saved.emplace_back(std::move(snap), ref);
    } else if (!saved.empty()) {
      const auto& [snap, snap_ref] = saved[rng() % saved.size()];
      store = std::make_unique<StateStore>();
      store->restore(snap);
      ref = snap_ref;
    }
    ASSERT_EQ(store->dedup_size(), ref.size()) << "step " << step;
  }
}

TEST(StateStore, OlderSnapshotOutlivesLaterSweeps) {
  // Chunks are immutable: sweeping the live store past a snapshot's
  // records must not change what that snapshot restores to.
  StateStore s;
  for (std::uint64_t p = 1; p <= 100; ++p) {
    ASSERT_TRUE(s.dedup_insert(p, static_cast<double>(p)));
  }
  const Snapshot old = s.snapshot();
  s.sweep_dedup(1000.0);
  EXPECT_EQ(s.dedup_size(), 0u);
  for (std::uint64_t p = 101; p <= 150; ++p) {
    ASSERT_TRUE(s.dedup_insert(p, 1000.0));
  }
  s.sweep_dedup(1000.0);  // keeps the t=1000 records, pops nothing more

  EXPECT_EQ(old.dedup.size(), 100u);
  StateStore r;
  r.restore(old);
  EXPECT_EQ(r.dedup_size(), 100u);
  for (std::uint64_t p = 1; p <= 100; ++p) {
    EXPECT_FALSE(r.dedup_insert(p, 2000.0)) << p;
  }
  EXPECT_TRUE(r.dedup_insert(101, 2000.0));
}

TEST(StateStore, ConsecutiveSnapshotsShareChunks) {
  StateStore s;
  const auto insert_batch = [&s](std::uint64_t first, double t) {
    for (std::uint64_t p = first; p < first + 50; ++p) s.dedup_insert(p, t);
  };
  insert_batch(1, 1.0);
  const Snapshot snap1 = s.snapshot();
  insert_batch(51, 2.0);
  const Snapshot snap2 = s.snapshot();
  const auto& c1 = snap1.dedup.chunks();
  const auto& c2 = snap2.dedup.chunks();
  ASSERT_EQ(c1.size(), 1u);
  ASSERT_EQ(c2.size(), 2u);
  EXPECT_EQ(c2[0].get(), c1[0].get());

  // A sweep past the first chunk drops it from the live log; the chunks
  // sealed by the sweep and the next snapshot are the only new ones.
  insert_batch(101, 3.0);
  s.sweep_dedup(1.5);
  insert_batch(151, 4.0);
  const Snapshot snap3 = s.snapshot();
  const auto& c3 = snap3.dedup.chunks();
  ASSERT_EQ(c3.size(), 3u);
  EXPECT_EQ(c3[0].get(), c2[1].get());
  EXPECT_NE(c3[1].get(), c2[1].get());
  EXPECT_NE(c3[2].get(), c3[1].get());
  EXPECT_EQ(snap3.dedup.size(), 150u);

  // Nothing appended since: the next snapshot seals nothing new.
  const Snapshot snap4 = s.snapshot();
  const auto& c4 = snap4.dedup.chunks();
  ASSERT_EQ(c4.size(), c3.size());
  for (std::size_t i = 0; i < c4.size(); ++i) {
    EXPECT_EQ(c4[i].get(), c3[i].get()) << i;
  }
  EXPECT_EQ(c1[0]->size(), 50u);  // the swept chunk is still intact
}

TEST(StateStore, SnapshotAllocationsIndependentOfDedupSize) {
  // snapshot() shares the log: sealing the open chunk (2), growing the
  // chunk-pointer list (0 or 1) and copying it (1) is a bounded number
  // of allocations, however many dedup entries the store holds.
  const auto snapshot_allocs = [](std::uint64_t paths) {
    StateStore s;
    for (std::uint64_t p = 1; p <= paths; ++p) {
      s.dedup_insert(p, static_cast<double>(p / 1000));
      if (p % 1000 == 0) s.sweep_dedup(0.0);  // seals a chunk
    }
    const auto before = heap_allocations();
    const Snapshot snap = s.snapshot();
    const auto allocs = heap_allocations() - before;
    EXPECT_EQ(snap.dedup.size(), paths);
    return allocs;
  };
  EXPECT_LE(snapshot_allocs(2500), 4u);
  EXPECT_LE(snapshot_allocs(250500), 4u);
}

// ----------------------------------------------------------- DurableStore

TEST(DurableStore, PendingInvisibleUntilCompleted) {
  DurableStore d;
  Snapshot snap;
  snap.bytes = 10;
  d.put_pending(5, /*ckpt=*/1, snap);
  // A pending (possibly torn) snapshot must never be restorable.
  EXPECT_EQ(d.completed(5), nullptr);

  d.mark_completed(1);
  std::uint64_t ckpt = 0;
  ASSERT_NE(d.completed(5, &ckpt), nullptr);
  EXPECT_EQ(ckpt, 1u);
  EXPECT_EQ(d.completed(5)->bytes, 10u);
}

TEST(DurableStore, TornSnapshotSupersededByNextRound) {
  DurableStore d;
  Snapshot good;
  good.bytes = 1;
  d.put_pending(5, 1, good);
  d.mark_completed(1);

  // Round 2's write lands but the round never completes (crash mid-
  // checkpoint): restore still reads round 1. Round 3 replaces the torn
  // pending snapshot and completes normally.
  Snapshot torn;
  torn.bytes = 999;
  d.put_pending(5, 2, torn);
  std::uint64_t ckpt = 0;
  ASSERT_NE(d.completed(5, &ckpt), nullptr);
  EXPECT_EQ(ckpt, 1u);
  EXPECT_EQ(d.completed(5)->bytes, 1u);

  Snapshot next;
  next.bytes = 7;
  d.put_pending(5, 3, next);
  d.mark_completed(3);
  ASSERT_NE(d.completed(5, &ckpt), nullptr);
  EXPECT_EQ(ckpt, 3u);
  EXPECT_EQ(d.completed(5)->bytes, 7u);
  EXPECT_EQ(d.rounds_completed(), 2u);
}

// -------------------------------------------------- CheckpointCoordinator

struct CoordinatorProbe {
  int barriers = 0;
  std::uint64_t last_round = 0;
  int completed = 0;
  int aborted = 0;
  std::unique_ptr<CheckpointCoordinator> coord;

  explicit CoordinatorProbe(double abort_timeout = 0) {
    CheckpointCoordinator::Callbacks cb;
    cb.inject_barriers = [this](int, std::uint64_t ckpt) {
      ++barriers;
      last_round = ckpt;
    };
    cb.on_complete = [this](int, std::uint64_t, double, std::uint64_t) {
      ++completed;
    };
    cb.on_abort = [this](int, std::uint64_t) { ++aborted; };
    coord =
        std::make_unique<CheckpointCoordinator>(std::move(cb), abort_timeout);
  }
};

TEST(CheckpointCoordinator, RoundCompletesWhenAllWritesLand) {
  CoordinatorProbe p;
  p.coord->register_topology(1, {10, 11});
  p.coord->tick(0.0);
  EXPECT_EQ(p.barriers, 1);
  const std::uint64_t round = p.last_round;
  EXPECT_EQ(p.coord->inflight_round(1), round);

  p.coord->on_snapshot_written(1, round, 10, 100, 1.0);
  EXPECT_EQ(p.completed, 0);  // still awaiting task 11
  p.coord->on_snapshot_written(1, round, 11, 50, 2.0);
  EXPECT_EQ(p.completed, 1);
  EXPECT_EQ(p.coord->inflight_round(1), 0u);

  const CheckpointGauges* g = p.coord->gauges(1);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->completed, 1u);
  EXPECT_EQ(g->last_id, round);
  EXPECT_EQ(g->last_bytes, 150u);
  EXPECT_DOUBLE_EQ(g->last_duration, 2.0);
}

TEST(CheckpointCoordinator, OpenRoundAbortedByNextTick) {
  CoordinatorProbe p;
  p.coord->register_topology(1, {10, 11});
  p.coord->tick(0.0);
  const std::uint64_t first = p.last_round;
  p.coord->on_snapshot_written(1, first, 10, 100, 1.0);

  // Next tick with task 11's write still missing: abort + new round.
  p.coord->tick(5.0);
  EXPECT_EQ(p.aborted, 1);
  EXPECT_EQ(p.barriers, 2);
  const std::uint64_t second = p.last_round;
  EXPECT_GT(second, first);

  // A late write of the aborted round — the torn snapshot — is ignored.
  p.coord->on_snapshot_written(1, first, 11, 50, 6.0);
  EXPECT_EQ(p.completed, 0);

  p.coord->on_snapshot_written(1, second, 10, 100, 7.0);
  p.coord->on_snapshot_written(1, second, 11, 50, 8.0);
  EXPECT_EQ(p.completed, 1);
}

TEST(CheckpointCoordinator, SlowRoundSurvivesTicksUntilAbortTimeout) {
  // Barriers ride the data path: a round slower than one interval is not
  // lost, just late. Ticks inside the abort timeout must neither abort it
  // nor start a concurrent round, so a backlogged cluster still commits.
  CoordinatorProbe p(/*abort_timeout=*/12.0);
  p.coord->register_topology(1, {10});
  p.coord->tick(0.0);
  const std::uint64_t round = p.last_round;

  p.coord->tick(5.0);
  p.coord->tick(10.0);
  EXPECT_EQ(p.aborted, 0);
  EXPECT_EQ(p.barriers, 1);  // ticks skipped, no new round injected
  EXPECT_EQ(p.coord->inflight_round(1), round);

  // The slow write lands after two skipped ticks: the round completes.
  p.coord->on_snapshot_written(1, round, 10, 100, 11.0);
  EXPECT_EQ(p.completed, 1);

  // The next stuck round is aborted only once it outlives the timeout.
  p.coord->tick(15.0);
  const std::uint64_t stuck = p.last_round;
  p.coord->tick(20.0);
  EXPECT_EQ(p.aborted, 0);
  p.coord->tick(27.5);
  EXPECT_EQ(p.aborted, 1);
  EXPECT_GT(p.last_round, stuck);
}

}  // namespace
}  // namespace tstorm::state

namespace tstorm::chaos {
namespace {

runtime::ClusterConfig state_config(std::uint64_t seed) {
  runtime::ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = seed;
  cfg.failure_detection = true;
  cfg.tuple_timeout = 10.0;
  cfg.late_ack_grace_factor = 2.0;
  cfg.replay_backoff_base = 0.5;
  cfg.replay_backoff_max = 8.0;
  cfg.node_timeout = 9.0;
  cfg.heartbeat_period = 2.0;
  cfg.monitor_period = 3.0;
  cfg.max_replays = 50;
  cfg.state.enabled = true;
  cfg.state.checkpoint_interval = 5.0;
  return cfg;
}

struct WordCountRig {
  sim::Simulation sim;
  std::unique_ptr<core::StormSystem> sys;
  std::unique_ptr<workload::QueueProducer> producer;
  sched::TopologyId id = -1;

  explicit WordCountRig(std::uint64_t seed,
                        runtime::ClusterConfig cfg) {
    sys = std::make_unique<core::StormSystem>(sim, cfg);
    workload::WordCountOptions opt;
    opt.spouts = 1;
    opt.splitters = 2;
    opt.counters = 2;
    opt.mongos = 1;
    opt.ackers = 2;
    opt.workers = 4;
    opt.text.vocabulary = 128;
    auto wc = workload::make_word_count(opt);
    producer = std::make_unique<workload::QueueProducer>(sim, *wc.queue, 60.0);
    producer->start();
    id = sys->submit(std::move(wc.topology));
    (void)seed;
  }

  runtime::Cluster& cluster() { return sys->cluster(); }
};

TEST(StateIntegration, CheckpointsCompleteEndToEnd) {
  WordCountRig rig(1, state_config(1));
  rig.sim.run_until(60.0);

  auto& cluster = rig.cluster();
  EXPECT_GT(cluster.trace_log().count(trace::EventKind::kCheckpointComplete),
            0u);
  EXPECT_GT(cluster.durable_state().writes_landed(), 0u);
  EXPECT_GT(cluster.durable_state().rounds_completed(), 0u);

  // Gauges populated and printable.
  const auto rows = cluster.checkpoint_gauges();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0].completed, 0u);
  EXPECT_GT(rows[0].last_bytes, 0u);
  EXPECT_GT(rows[0].mean_interval, 0.0);
  std::ostringstream os;
  metrics::print_checkpoint_gauges(os, rows);
  EXPECT_NE(os.str().find("completed"), std::string::npos);

  // The stateful word counter is actually accumulating in managed state.
  InvariantAuditor auditor(cluster);
  const KeyedState keyed = auditor.collect_keyed_state();
  EXPECT_FALSE(keyed.empty());
}

TEST(StateIntegration, RestoreOnRescheduleRehydratesState) {
  WordCountRig rig(2, state_config(2));
  rig.sim.run_until(40.0);
  auto& cluster = rig.cluster();
  ASSERT_GT(cluster.trace_log().count(trace::EventKind::kCheckpointComplete),
            0u);

  InvariantAuditor auditor(cluster);
  const KeyedState before = auditor.collect_keyed_state();
  ASSERT_FALSE(before.empty());

  // Kill the worker hosting a stateful bolt task; the supervisor restarts
  // it and the fresh executor must rehydrate from the durable store.
  runtime::Executor* target = nullptr;
  for (runtime::Executor* e : cluster.registered_executors()) {
    if (e->state_store() != nullptr && !e->state_store()->size()) continue;
    if (e->state_store() != nullptr) {
      target = e;
      break;
    }
  }
  ASSERT_NE(target, nullptr);
  bool killed = false;
  for (int n = 0; n < cluster.num_nodes() && !killed; ++n) {
    for (int p = 0; p < cluster.slots_on_node(n) && !killed; ++p) {
      if (cluster.supervisor(n).worker_at(p) == &target->worker()) {
        killed = cluster.kill_worker(n, p);
      }
    }
  }
  ASSERT_TRUE(killed);

  rig.sim.run_until(80.0);
  EXPECT_GT(cluster.trace_log().count(trace::EventKind::kStateRestored), 0u);

  // Counts survived the crash: every pre-kill key is still present with at
  // least its checkpointed weight still growing under live traffic.
  const KeyedState after = auditor.collect_keyed_state();
  for (const auto& [key, n] : before) {
    const auto it = after.find(key);
    ASSERT_NE(it, after.end()) << "key lost across restore: " << key;
    EXPECT_GE(it->second, 1) << key;
  }
  EXPECT_TRUE(auditor.check_now().ok())
      << auditor.check_now().to_string();
}

TEST(StateIntegration, CrashMidCheckpointIgnoresTornSnapshot) {
  // Abort churn: a checkpoint interval short enough that worker kills land
  // mid-round. Torn rounds must be aborted (not completed), and restores
  // must keep working off the last completed round — the auditor's state
  // books still balance after quiesce.
  auto cfg = state_config(3);
  cfg.state.checkpoint_interval = 2.0;
  WordCountRig rig(3, cfg);

  FaultPlan plan;
  plan.kill_worker(21.0, 0, 0)
      .kill_worker(33.0, 1, 0)
      .kill_worker(45.0, 2, 1);
  plan.inject(rig.cluster());

  rig.sim.run_until(90.0);
  auto& cluster = rig.cluster();
  EXPECT_GT(cluster.trace_log().count(trace::EventKind::kCheckpointComplete),
            0u);
  // Under this schedule some rounds must have died mid-flight.
  EXPECT_GT(cluster.trace_log().count(trace::EventKind::kCheckpointAborted) +
                cluster.trace_log().count(trace::EventKind::kStateRestored),
            0u);

  InvariantAuditor auditor(cluster);
  EXPECT_TRUE(auditor.check_now().ok()) << auditor.check_now().to_string();
}

TEST(StateIntegration, DedupDropsAreAttributed) {
  // Lossy network forces replays; replayed duplicates that reach a
  // stateful bolt must be suppressed and filed under kStateDedup, with
  // the suppression counter and the drop cause in exact double-entry.
  auto cfg = state_config(4);
  cfg.network.inter_node_drop_prob = 0.05;
  WordCountRig rig(4, cfg);
  rig.sim.run_until(120.0);

  auto& cluster = rig.cluster();
  EXPECT_GT(cluster.state_dedup_suppressed(), 0u);
  EXPECT_EQ(cluster.state_dedup_suppressed(),
            cluster.dropped_by(runtime::DropCause::kStateDedup));
  InvariantAuditor auditor(cluster);
  EXPECT_TRUE(auditor.check_now().ok()) << auditor.check_now().to_string();
}

/// Emits seqs 0..limit-1 once each, publishing how many it produced.
class SeqSpout final : public topo::Spout {
 public:
  SeqSpout(std::int64_t limit, std::shared_ptr<std::int64_t> emitted)
      : limit_(limit), emitted_(std::move(emitted)) {}
  std::optional<topo::Tuple> next_tuple() override {
    if (next_ >= limit_) return std::nullopt;
    *emitted_ = next_ + 1;
    return topo::Tuple{next_++};
  }

 private:
  std::int64_t limit_;
  std::int64_t next_ = 0;
  std::shared_ptr<std::int64_t> emitted_;
};

/// Stateful pass-through: one managed-state update, one child per input.
class SeqForwardBolt final : public topo::StatefulBolt {
 public:
  void execute(const topo::Tuple& input, topo::BoltContext& ctx) override {
    state().increment(topo::Value("n"));
    ctx.emit(topo::Tuple{input.get_int(0)});
  }
  [[nodiscard]] double cpu_cost_mega_cycles(
      const topo::Tuple& /*input*/) const override {
    return 0.05;
  }
};

/// Stateless sink recording every distinct seq it ever receives.
class SeqSinkBolt final : public topo::Bolt {
 public:
  explicit SeqSinkBolt(std::shared_ptr<std::set<std::int64_t>> seen)
      : seen_(std::move(seen)) {}
  void execute(const topo::Tuple& input,
               topo::BoltContext& /*ctx*/) override {
    seen_->insert(input.get_int(0));
  }
  [[nodiscard]] double cpu_cost_mega_cycles(
      const topo::Tuple& /*input*/) const override {
    return 0.05;
  }

 private:
  std::shared_ptr<std::set<std::int64_t>> seen_;
};

TEST(StateIntegration, ReplayedDuplicatesStillFeedStatelessSinks) {
  // The acked-but-undelivered scenario: a tuple's child is lost *below*
  // the stateful bolt, the tree replays, and the replay hits the bolt's
  // dedup set. The suppressed duplicate must still re-emit its child —
  // if it contributed no downstream edges, the replayed tree would
  // complete while the stateless sink never received the tuple in any
  // attempt. With abandonment effectively impossible (50 replays versus
  // ~8% loss), every emitted seq must eventually reach the sink.
  sim::Simulation sim;
  auto cfg = state_config(7);
  cfg.failure_detection = false;
  cfg.network.inter_node_drop_prob = 0.08;
  cfg.network.intra_process_drop_prob = 0.02;
  core::StormSystem sys(sim, cfg);

  auto seen = std::make_shared<std::set<std::int64_t>>();
  auto emitted = std::make_shared<std::int64_t>(0);

  topo::TopologyBuilder b;
  b.set_spout("seq",
              [emitted] { return std::make_unique<SeqSpout>(200, emitted); },
              1)
      .output_fields({"seq"})
      .emit_interval(0.05);
  b.set_bolt("fwd", [] { return std::make_unique<SeqForwardBolt>(); }, 2)
      .output_fields({"seq"})
      .stateful()
      .shuffle_grouping("seq");
  b.set_bolt("sink", [seen] { return std::make_unique<SeqSinkBolt>(seen); },
             2)
      .shuffle_grouping("fwd");
  sys.submit(b.build("seq-chain", /*num_workers=*/4, /*num_ackers=*/1));

  sim.run_until(200.0);

  auto& cluster = sys.cluster();
  // The fix is only exercised if replays actually hit the dedup set.
  EXPECT_GT(cluster.state_dedup_suppressed(), 0u);
  ASSERT_EQ(*emitted, 200);
  EXPECT_EQ(static_cast<std::int64_t>(seen->size()), *emitted);
  InvariantAuditor auditor(cluster);
  EXPECT_TRUE(auditor.check_now().ok()) << auditor.check_now().to_string();
}

TEST(StateIntegration, BarrierAlignmentAtTwoInputBolt) {
  // A stateful bolt fed by two spout components must align barriers from
  // every upstream task before snapshotting. Under a fault-free run every
  // round completes: alignment can never wedge or abort.
  sim::Simulation sim;
  auto cfg = state_config(5);
  cfg.failure_detection = false;
  core::StormSystem sys(sim, cfg);

  topo::TopologyBuilder b;
  b.set_spout("left",
              [] {
                return std::make_unique<workload::RandomStringSpout>(
                    32, 0.05, 111);
              },
              1)
      .output_fields({"str"})
      .emit_interval(0.02);
  b.set_spout("right",
              [] {
                return std::make_unique<workload::RandomStringSpout>(
                    32, 0.05, 222);
              },
              1)
      .output_fields({"str"})
      .emit_interval(0.03);
  b.set_bolt("merge",
             [] { return std::make_unique<workload::CounterBolt>(0.05); },
             2)
      .stateful()
      .shuffle_grouping("left")
      .shuffle_grouping("right");
  sys.submit(b.build("two-input", /*num_workers=*/4, /*num_ackers=*/1));

  sim.run_until(60.0);
  auto& cluster = sys.cluster();
  const auto completes =
      cluster.trace_log().of_kind(trace::EventKind::kCheckpointComplete);
  ASSERT_GE(completes.size(), 2u);
  // Rounds injected before the workers finish deploying legitimately
  // abort; once the topology is live, two-input alignment must never
  // wedge a round — every abort has to predate the first completion.
  for (const auto& e :
       cluster.trace_log().of_kind(trace::EventKind::kCheckpointAborted)) {
    EXPECT_LT(e.time, completes.front().time)
        << "round aborted after steady state: " << e.detail;
  }
  InvariantAuditor auditor(cluster);
  EXPECT_TRUE(auditor.check_now().ok()) << auditor.check_now().to_string();
}

// ----------------------------------------------------------- Determinism

struct TraceRun {
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  std::string trace;
};

TraceRun run_with_state(std::uint64_t seed, bool with_faults) {
  auto cfg = state_config(seed);
  WordCountRig rig(seed, cfg);
  if (with_faults) {
    RandomPlanOptions opt;
    opt.start = 20.0;
    opt.end = 80.0;
    opt.crashes = 1;
    opt.min_downtime = 10.0;
    opt.max_downtime = 20.0;
    opt.worker_kills = 2;
    opt.partitions = 1;
    opt.loss_spikes = 1;
    opt.max_drop_prob = 0.05;
    FaultPlan::random(opt, seed, cfg.num_nodes, cfg.slots_per_node)
        .inject(rig.cluster());
  }
  rig.sim.run_until(100.0);
  TraceRun r;
  r.events = rig.sim.events_executed();
  r.completed = rig.cluster().completion().total_completed();
  std::ostringstream os;
  rig.cluster().trace_log().dump(os);
  r.trace = os.str();
  return r;
}

TEST(StateDeterminism, SameSeedByteIdenticalWithCheckpointing) {
  const TraceRun a = run_with_state(11, /*with_faults=*/false);
  const TraceRun b = run_with_state(11, /*with_faults=*/false);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_GT(a.completed, 0u);
}

TEST(StateDeterminism, SameSeedByteIdenticalUnderFaultsAndRestore) {
  // Restore determinism: crash + replay + rehydrate paths must all be
  // seed-deterministic — byte-identical traces across identical runs.
  const TraceRun a = run_with_state(12, /*with_faults=*/true);
  const TraceRun b = run_with_state(12, /*with_faults=*/true);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.trace, b.trace);
}

}  // namespace
}  // namespace tstorm::chaos
