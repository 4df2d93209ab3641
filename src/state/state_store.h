// Keyed operator state. A StateStore is the task-local map a StatefulBolt
// mutates from execute(): topo::Value keys to topo::Value values in an
// open-addressing table whose capacity plateaus at the key-space
// high-water mark, so steady-state updates perform no heap allocation
// (the same guarantee sim::FlatMap gives the runtime's bookkeeping —
// FlatMap itself needs trivially-copyable keys, which Value is not, so
// the keyed table reimplements its probing with stored hashes).
//
// The store also owns the runtime-facing half of exactly-once state:
//   * a dedup set of applied update paths (deterministic lineage ids of
//     tuple-tree branches) that suppresses re-application of replayed
//     updates, swept by age at checkpoint time. It is a time-ordered log
//     of (path, t) records held as immutable shared chunks, plus a 5 B
//     per slot path index (the 32-bit sequence number of the path's
//     latest record and a 1-byte hash tag); a sweep pops expired records
//     off the front;
//   * Snapshots taken at barrier alignment, written to the simulated
//     durable store, and restored into a fresh executor after
//     reassignment. Keyed entries are copied; the dedup log is shared —
//     a snapshot holds pointers to the sealed chunks, so the live store,
//     an in-flight write and the durable pending and completed snapshots
//     keep one copy of the log between them. State and dedup set
//     snapshot/restore atomically, so "update applied" and "update
//     remembered as applied" can never be split by a crash.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "topo/tuple.h"

namespace tstorm::state {

/// splitmix64 finalizer: the path/id mixer. Deterministic, well-mixed,
/// cheap enough for the per-emission routing path.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Lineage path of a spout root emission: stable across replay attempts
/// because it derives from the tree uid (the attempt-0 root id), never
/// from the per-attempt root id. Never returns 0 (the dedup sentinel).
[[nodiscard]] constexpr std::uint64_t root_path(std::uint64_t uid) noexcept {
  const std::uint64_t p = mix64(uid);
  return p != 0 ? p : 1;
}

/// Lineage path of the `ordinal`-th emission while processing an input
/// envelope with path `parent`. Bolt logic is deterministic given its
/// state keys, so attempt N and attempt N+1 of the same tree assign the
/// same paths to the same logical updates — the dedup invariant.
[[nodiscard]] constexpr std::uint64_t child_path(
    std::uint64_t parent, std::uint64_t ordinal) noexcept {
  const std::uint64_t p = mix64(parent ^ (ordinal + 0x517cc1b727220a95ULL));
  return p != 0 ? p : 1;
}

/// The dedup half of a snapshot: the store's time-ordered (path, t) log
/// as shared immutable chunks. Copying one copies chunk pointers only.
class DedupLog {
 public:
  struct Record {
    std::uint64_t path;
    double t;
  };
  /// Consecutive records; record i has sequence number base + i (mod 2^32).
  struct Chunk {
    std::uint32_t base = 0;
    std::vector<Record> records;

    [[nodiscard]] std::size_t size() const { return records.size(); }
    [[nodiscard]] const Record& operator[](std::size_t i) const {
      return records[i];
    }
  };

  /// Distinct live (unswept) paths — what the serialized form carries.
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] const std::vector<std::shared_ptr<const Chunk>>& chunks()
      const {
    return chunks_;
  }

 private:
  friend class StateStore;

  std::vector<std::shared_ptr<const Chunk>> chunks_;
  /// Records of chunks_.front() before this offset are swept.
  std::size_t front_ = 0;
  std::size_t live_ = 0;
};

/// A store's checkpoint: copied keyed entries + shared dedup log +
/// serialized size. Built once per checkpoint (allocation at checkpoint
/// rate, not tuple rate); shipped through the network model to the
/// durable store.
struct Snapshot {
  std::vector<std::pair<topo::Value, topo::Value>> entries;
  DedupLog dedup;
  /// Approximate serialized size (drives write transmission time).
  std::uint64_t bytes = 0;
};

class StateStore {
 public:
  StateStore() = default;
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// --- Keyed API (StatefulBolt-facing). ---
  [[nodiscard]] const topo::Value* get(const topo::Value& key) const;
  void put(const topo::Value& key, topo::Value value);
  /// Adds `by` to an integer-valued key (insert-at-zero when absent) and
  /// returns the new total. The workhorse of every counting bolt.
  std::int64_t increment(const topo::Value& key, std::int64_t by = 1);
  /// Invokes fn(const Value& key, const Value& value) per entry, in
  /// unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.hash != 0) fn(s.key, s.value);
    }
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Approximate serialized size of the keyed entries, maintained
  /// incrementally (no walk at checkpoint time).
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

  /// --- Replay mode (runtime-facing). ---
  /// While set, mutations are suppressed — put() drops its value and
  /// increment() returns the stored total unchanged (the suppressed
  /// update is already in it) — while reads see post-application state.
  /// The hosting executor wraps re-execution of a dedup-suppressed
  /// duplicate in this mode, so the bolt re-emits its children without
  /// re-applying its state effects.
  void set_replay(bool on) { replay_ = on; }
  [[nodiscard]] bool in_replay() const { return replay_; }

  /// --- Exactly-once dedup (runtime-facing). ---
  /// Records that the update with lineage id `path` was applied at `now`.
  /// Returns false — and refreshes the timestamp — when the path was
  /// already applied (a replayed duplicate to suppress). Refreshing keeps
  /// an entry alive as long as attempts of its tree keep arriving, so the
  /// age sweep can never forget a path that might still be replayed.
  /// `now` must be non-decreasing across calls (simulated time is), so
  /// the log stays time-ordered.
  bool dedup_insert(std::uint64_t path, double now);
  /// Drops dedup entries last touched before `horizon`: O(records swept).
  void sweep_dedup(double horizon);
  [[nodiscard]] std::size_t dedup_size() const { return log_.live_; }

  /// --- Checkpoint / restore. ---
  /// Copies the keyed entries and shares the dedup log: O(entries +
  /// chunks), independent of the dedup set's size. Seals the open chunk.
  [[nodiscard]] Snapshot snapshot();
  /// Replaces the full contents (keyed entries and dedup set) with the
  /// snapshot's. The pre-restore contents are discarded and replay mode
  /// is left, like clear().
  void restore(const Snapshot& snap);
  /// Empties the store and leaves replay mode.
  void clear();

 private:
  struct Slot {
    std::uint64_t hash = 0;  // 0 = empty (hash_value output 0 maps to 1)
    topo::Value key;
    topo::Value value;
  };

  [[nodiscard]] static std::uint64_t slot_hash(const topo::Value& key);
  /// Index of the key's slot, or of the empty slot where it would insert.
  [[nodiscard]] std::size_t probe(const topo::Value& key,
                                  std::uint64_t h) const;
  topo::Value& slot_for(const topo::Value& key);
  /// put() without the replay check.
  void assign(const topo::Value& key, topo::Value value);
  void grow();
  /// Moves the open records into a new immutable chunk of the log.
  void seal();
  /// The live record with sequence number `seq`.
  [[nodiscard]] const DedupLog::Record& record(std::uint32_t seq) const;
  /// Index of `path`'s slot, or of the empty slot where it would insert.
  [[nodiscard]] std::size_t find_slot(std::uint64_t path,
                                      std::uint64_t h) const;
  /// Sizes the index to `capacity` slots and fills it from the log.
  void rehash(std::size_t capacity);
  /// Indexes `path` at its record `seq`, the latest so far.
  void index_record(std::uint64_t path, std::uint32_t seq);
  /// Drops `path` from the index if `seq` is its latest record.
  void forget(std::uint64_t path, std::uint32_t seq);
  /// Backward-shift erase, so lookups never cross a hole mid-chain.
  void erase_slot(std::size_t i);

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint64_t bytes_ = 0;
  bool replay_ = false;

  /// Sealed dedup records, oldest first, and the live path count.
  DedupLog log_;
  /// Sequence number of a store's first record: 256 below 2^32, so any
  /// store past its first 256 records has crossed the wrap, with records
  /// on both sides of it live for a while. Sequence numbers are compared
  /// as offsets from the oldest live chunk's base; a live log spans far
  /// fewer than 2^32 records.
  static constexpr std::uint32_t kFirstSeq = 0xFFFFFF00u;
  /// Records appended since the last seal, with the next sealed chunk's
  /// base; capacity is reused.
  DedupLog::Chunk open_{kFirstSeq, {}};
  /// Path index: open addressing with linear probing from mix64(path).
  /// Slot i is empty when tags_[i] is 0; otherwise seqs_[i] is the
  /// sequence number of its path's latest record and tags_[i] the hash's
  /// top byte (0 folded into 1), so a probe reads a record only when the
  /// tag matches. 5 B per slot, at most 3/4 full.
  std::vector<std::uint8_t> tags_;
  std::vector<std::uint32_t> seqs_;
};

}  // namespace tstorm::state
