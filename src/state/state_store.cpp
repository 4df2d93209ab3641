#include "state/state_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <memory>

namespace tstorm::state {

namespace {

/// Per-entry framing overhead in the serialized form (tags + lengths).
constexpr std::uint64_t kEntryOverhead = 16;
constexpr std::uint64_t kDedupEntryBytes = 16;  // path + timestamp

}  // namespace

std::uint64_t StateStore::slot_hash(const topo::Value& key) {
  // Re-mix the FNV output: hash_value is well distributed over its full
  // width but the table masks to the low bits, and 0 is the empty
  // sentinel.
  const std::uint64_t h = mix64(topo::hash_value(key));
  return h != 0 ? h : 1;
}

std::size_t StateStore::probe(const topo::Value& key, std::uint64_t h) const {
  assert(!slots_.empty());
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (slots_[i].hash != 0 &&
         (slots_[i].hash != h || !(slots_[i].key == key))) {
    i = (i + 1) & mask;
  }
  return i;
}

void StateStore::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (Slot& s : old) {
    if (s.hash == 0) continue;
    std::size_t i = static_cast<std::size_t>(s.hash) & mask;
    while (slots_[i].hash != 0) i = (i + 1) & mask;
    slots_[i] = std::move(s);
  }
}

const topo::Value* StateStore::get(const topo::Value& key) const {
  if (slots_.empty()) return nullptr;
  const std::size_t i = probe(key, slot_hash(key));
  return slots_[i].hash != 0 ? &slots_[i].value : nullptr;
}

topo::Value& StateStore::slot_for(const topo::Value& key) {
  if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) grow();
  const std::uint64_t h = slot_hash(key);
  const std::size_t i = probe(key, h);
  if (slots_[i].hash == 0) {
    slots_[i].hash = h;
    slots_[i].key = key;
    ++size_;
    // The fresh slot's default value counts too — put()/increment()
    // subtract the old value's bytes before writing the new one.
    bytes_ += topo::value_bytes(key) + topo::value_bytes(slots_[i].value) +
              kEntryOverhead;
  }
  return slots_[i].value;
}

void StateStore::put(const topo::Value& key, topo::Value value) {
  if (replay_) return;  // suppressed duplicate: the update already applied
  assign(key, std::move(value));
}

void StateStore::assign(const topo::Value& key, topo::Value value) {
  topo::Value& v = slot_for(key);
  bytes_ -= topo::value_bytes(v);
  v = std::move(value);
  bytes_ += topo::value_bytes(v);
}

std::int64_t StateStore::increment(const topo::Value& key, std::int64_t by) {
  if (replay_) {
    // Suppressed duplicate: the stored total already includes this update,
    // so report it as-is — the replayed emission mirrors the original's
    // exactly-once application.
    const topo::Value* v = get(key);
    return v != nullptr && v->kind() == topo::Value::Kind::kInt ? v->as_int()
                                                                : by;
  }
  topo::Value& v = slot_for(key);
  // A freshly inserted slot holds the default Value (int 0), so the first
  // increment lands on zero.
  const std::int64_t next =
      (v.kind() == topo::Value::Kind::kInt ? v.as_int() : 0) + by;
  bytes_ -= topo::value_bytes(v);
  v = topo::Value(next);
  bytes_ += topo::value_bytes(v);
  return next;
}

namespace {

/// Index tag of a path hash: its top byte, with 0 (the empty-slot mark)
/// folded into 1.
[[nodiscard]] std::uint8_t tag_of(std::uint64_t h) {
  const auto tag = static_cast<std::uint8_t>(h >> 56);
  return tag != 0 ? tag : 1;
}

}  // namespace

const DedupLog::Record& StateStore::record(std::uint32_t seq) const {
  // Unsigned offsets: a sequence number before the open base wraps to a
  // large offset.
  if (seq - open_.base < open_.size()) return open_[seq - open_.base];
  // The last sealed chunk whose base is at or before `seq`, with bases
  // compared as offsets from the oldest chunk's.
  const auto& chunks = log_.chunks_;
  assert(!chunks.empty());
  const std::uint32_t oldest = chunks.front()->base;
  const auto after = std::upper_bound(
      chunks.begin() + 1, chunks.end(), seq - oldest,
      [oldest](std::uint32_t offset, const auto& c) {
        return offset < c->base - oldest;
      });
  const DedupLog::Chunk& c = **(after - 1);
  assert(seq - c.base < c.size());
  return c[seq - c.base];
}

std::size_t StateStore::find_slot(std::uint64_t path, std::uint64_t h) const {
  const std::size_t mask = tags_.size() - 1;
  const std::uint8_t tag = tag_of(h);
  for (std::size_t i = static_cast<std::size_t>(h) & mask;;
       i = (i + 1) & mask) {
    if (tags_[i] == 0 ||
        (tags_[i] == tag && record(seqs_[i]).path == path)) {
      return i;
    }
  }
}

void StateStore::index_record(std::uint64_t path, std::uint32_t seq) {
  const std::uint64_t h = mix64(path);
  const std::size_t i = find_slot(path, h);
  if (tags_[i] == 0) {
    tags_[i] = tag_of(h);
    ++log_.live_;
  }
  seqs_[i] = seq;
}

void StateStore::rehash(std::size_t capacity) {
  // The log holds every live path, so the old table is released before
  // the new one is allocated (move-assigning an empty vector frees).
  tags_ = std::vector<std::uint8_t>();
  seqs_ = std::vector<std::uint32_t>();
  tags_.resize(capacity);
  seqs_.resize(capacity);
  log_.live_ = 0;
  // Oldest first, so each path's slot ends at its latest record.
  for (std::size_t c = 0; c < log_.chunks_.size(); ++c) {
    const DedupLog::Chunk& chunk = *log_.chunks_[c];
    for (std::size_t i = c == 0 ? log_.front_ : 0; i < chunk.size(); ++i) {
      index_record(chunk[i].path, chunk.base + static_cast<std::uint32_t>(i));
    }
  }
  for (std::size_t i = 0; i < open_.size(); ++i) {
    index_record(open_[i].path, open_.base + static_cast<std::uint32_t>(i));
  }
}

bool StateStore::dedup_insert(std::uint64_t path, double now) {
  assert((open_.records.empty() || now >= open_.records.back().t) &&
         "dedup_insert: now must be non-decreasing");
  // The growth policy of sim::FlatMap: at most 3/4 full.
  if (tags_.empty() || (log_.live_ + 1) * 4 > tags_.size() * 3) {
    rehash(tags_.empty() ? 16 : tags_.size() * 2);
  }
  const std::size_t live = log_.live_;
  // A duplicate moves its path's slot to the new record: the tree is
  // still being replayed.
  index_record(path, open_.base + static_cast<std::uint32_t>(open_.size()));
  open_.records.push_back({path, now});
  return log_.live_ != live;
}

void StateStore::seal() {
  if (open_.records.empty()) return;
  // An exact-size copy, so open_ keeps its capacity for the next chunk.
  log_.chunks_.push_back(std::make_shared<const DedupLog::Chunk>(
      DedupLog::Chunk{open_.base, {open_.records.begin(),
                                   open_.records.end()}}));
  open_.base += static_cast<std::uint32_t>(open_.size());
  open_.records.clear();
}

void StateStore::forget(std::uint64_t path, std::uint32_t seq) {
  const std::size_t i = find_slot(path, mix64(path));
  assert(tags_[i] != 0 && "a live record's path is indexed");
  // Otherwise a later record of the path keeps it alive.
  if (seqs_[i] == seq) erase_slot(i);
}

void StateStore::erase_slot(std::size_t i) {
  const std::size_t mask = tags_.size() - 1;
  std::size_t hole = i;
  for (std::size_t j = (i + 1) & mask; tags_[j] != 0; j = (j + 1) & mask) {
    const std::size_t home =
        static_cast<std::size_t>(mix64(record(seqs_[j]).path)) & mask;
    // Move j into the hole iff the hole lies cyclically in [home, j).
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      tags_[hole] = tags_[j];
      seqs_[hole] = seqs_[j];
      hole = j;
    }
  }
  tags_[hole] = 0;
  --log_.live_;
}

void StateStore::sweep_dedup(double horizon) {
  seal();
  auto& chunks = log_.chunks_;
  std::size_t& front = log_.front_;
  std::size_t done = 0;  // chunks swept to their end
  for (; done < chunks.size(); ++done) {
    const DedupLog::Chunk& c = *chunks[done];
    for (; front < c.size() && c[front].t < horizon; ++front) {
      forget(c[front].path, c.base + static_cast<std::uint32_t>(front));
    }
    if (front < c.size()) break;
    front = 0;
  }
  chunks.erase(chunks.begin(),
               chunks.begin() + static_cast<std::ptrdiff_t>(done));
}

Snapshot StateStore::snapshot() {
  seal();
  Snapshot snap;
  snap.entries.reserve(size_);
  for_each([&snap](const topo::Value& k, const topo::Value& v) {
    snap.entries.emplace_back(k, v);
  });
  snap.dedup = log_;
  snap.bytes = bytes_ + kDedupEntryBytes * snap.dedup.size() + 32;
  return snap;
}

void StateStore::restore(const Snapshot& snap) {
  clear();
  for (const auto& [k, v] : snap.entries) assign(k, v);
  log_ = snap.dedup;
  if (log_.chunks_.empty()) return;
  const DedupLog::Chunk& last = *log_.chunks_.back();
  open_.base = last.base + static_cast<std::uint32_t>(last.size());
  // Every record past the front is unswept, so its path is live. The
  // table is sized like sim::FlatMap::reserve(live).
  rehash(std::max<std::size_t>(16, std::bit_ceil((log_.live_ * 4 + 2) / 3)));
  assert(log_.live_ == snap.dedup.size());
}

void StateStore::clear() {
  slots_.clear();
  size_ = 0;
  bytes_ = 0;
  replay_ = false;
  log_ = DedupLog{};
  open_.base = kFirstSeq;
  open_.records.clear();
  std::fill(tags_.begin(), tags_.end(), std::uint8_t{0});
}

}  // namespace tstorm::state
