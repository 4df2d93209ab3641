#include "state/state_store.h"

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

bool StateStore::dedup_insert(std::uint64_t path, double now) {
  assert((open_.empty() || now >= open_.back().t) &&
         "dedup_insert: now must be non-decreasing");
  bool inserted = false;
  index_.get_or_insert(path, &inserted);
  // Refresh on duplicate: the tree is still being replayed.
  if (!inserted) refreshed_[path] = now;
  open_.push_back({path, now});
  return inserted;
}

void StateStore::seal() {
  if (open_.empty()) return;
  // An exact-size copy, so open_ keeps its capacity for the next chunk.
  log_.chunks_.push_back(
      std::make_shared<const DedupLog::Chunk>(open_.begin(), open_.end()));
  open_.clear();
}

void StateStore::forget(const DedupLog::Record& r) {
  if (const double* latest = refreshed_.find(r.path)) {
    if (*latest > r.t) return;  // a later record keeps the path alive
    refreshed_.erase(r.path);
  }
  // A no-op for the second of two same-time records of one path.
  index_.erase(r.path);
}

void StateStore::sweep_dedup(double horizon) {
  seal();
  auto& chunks = log_.chunks_;
  std::size_t& front = log_.front_;
  std::size_t done = 0;  // chunks swept to their end
  for (; done < chunks.size(); ++done) {
    const DedupLog::Chunk& c = *chunks[done];
    while (front < c.size() && c[front].t < horizon) forget(c[front++]);
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
  snap.dedup.live_ = index_.size();
  snap.bytes = bytes_ + kDedupEntryBytes * snap.dedup.size() + 32;
  return snap;
}

void StateStore::restore(const Snapshot& snap) {
  clear();
  for (const auto& [k, v] : snap.entries) assign(k, v);
  log_ = snap.dedup;
  // Every record past the front is unswept, so its path is live; a path
  // met again was refreshed, and its last record is its latest.
  for (std::size_t c = 0; c < log_.chunks_.size(); ++c) {
    const DedupLog::Chunk& chunk = *log_.chunks_[c];
    for (std::size_t i = c == 0 ? log_.front_ : 0; i < chunk.size(); ++i) {
      bool inserted = false;
      index_.get_or_insert(chunk[i].path, &inserted);
      if (!inserted) refreshed_[chunk[i].path] = chunk[i].t;
    }
  }
  assert(index_.size() == snap.dedup.size());
}

void StateStore::clear() {
  slots_.clear();
  size_ = 0;
  bytes_ = 0;
  replay_ = false;
  log_ = DedupLog{};
  open_.clear();
  index_.clear();
  refreshed_.clear();
}

}  // namespace tstorm::state
