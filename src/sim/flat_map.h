// Open-addressing hash map with linear probing and backward-shift erase.
// Replaces std::unordered_map on the per-tuple hot paths (acker XOR state,
// tracker entries): no node allocation per insert — capacity is a single
// flat array that plateaus at the in-flight high-water mark, so steady
// state performs zero heap allocations (erase keeps capacity).
//
// One key value is reserved as the empty-slot sentinel (template
// parameter). Root ids use 0 (spouts never emit root 0); task ids use -1.
// With V = Unit the map is a set whose slots hold only the key.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tstorm::sim {

/// Value type of a set-like FlatMap: takes no space in a slot.
struct Unit {};

template <typename K, typename V, K EmptyKey>
class FlatMap {
 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] bool contains(K key) const noexcept {
    return find(key) != nullptr;
  }

  [[nodiscard]] const V* find(K key) const noexcept {
    assert(key != EmptyKey);
    if (slots_.empty()) return nullptr;
    for (std::size_t i = index_of(key);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == EmptyKey) return nullptr;
    }
  }
  [[nodiscard]] V* find(K key) noexcept {
    return const_cast<V*>(std::as_const(*this).find(key));
  }

  /// Finds or default-inserts. `inserted` (optional) reports which.
  V& get_or_insert(K key, bool* inserted = nullptr) {
    assert(key != EmptyKey);
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) grow();
    for (std::size_t i = index_of(key);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.key == key) {
        if (inserted != nullptr) *inserted = false;
        return s.value;
      }
      if (s.key == EmptyKey) {
        s.key = key;
        s.value = V{};
        ++size_;
        if (inserted != nullptr) *inserted = true;
        return s.value;
      }
    }
  }
  V& operator[](K key) { return get_or_insert(key); }

  /// Sizes the table for `n` entries in one allocation, so inserting up to
  /// `n` entries in total never grows it. Never shrinks.
  void reserve(std::size_t n) {
    // get_or_insert grows once (size + 1) * 4 > capacity * 3.
    const std::size_t cap =
        std::max<std::size_t>(16, std::bit_ceil((n * 4 + 2) / 3));
    if (cap > slots_.size()) rehash(cap);
  }

  /// Backward-shift erase: true if the key was present. Capacity is kept.
  bool erase(K key) noexcept {
    assert(key != EmptyKey);
    if (slots_.empty()) return false;
    for (std::size_t i = index_of(key);; i = (i + 1) & mask()) {
      if (slots_[i].key == EmptyKey) return false;
      if (slots_[i].key == key) {
        erase_slot(i);
        return true;
      }
    }
  }

  /// Removes every entry for which pred(key, value) is true, in one pass.
  /// The pass is exact for a pure predicate: a backward shift only moves
  /// not-yet-scanned entries into slots at or after the scan position
  /// (re-examined there), and entries that wrapped around from the front
  /// were already examined and kept — pred may see them twice, never 0
  /// times.
  template <typename Pred>
  void erase_if(Pred pred) noexcept {
    for (std::size_t i = 0; i < slots_.size();) {
      if (slots_[i].key != EmptyKey && pred(slots_[i].key, slots_[i].value)) {
        erase_slot(i);  // may shift a later element into i: re-examine
      } else {
        ++i;
      }
    }
  }

  /// Bytes per slot (capacity, not size, is what the table holds).
  [[nodiscard]] static constexpr std::size_t slot_bytes() noexcept {
    return sizeof(Slot);
  }

  template <typename Fn>
  void for_each(Fn fn) const {
    for (const Slot& s : slots_) {
      if (s.key != EmptyKey) fn(s.key, s.value);
    }
  }

  void clear() noexcept {
    for (Slot& s : slots_) {
      if (s.key != EmptyKey) {
        s.key = EmptyKey;
        s.value = V{};
      }
    }
    size_ = 0;
  }

 private:
  struct Slot {
    K key = EmptyKey;
    // An empty V (a set's unit value) takes no space: the slot is the key.
    [[no_unique_address]] V value{};
  };

  [[nodiscard]] std::size_t mask() const noexcept {
    return slots_.size() - 1;
  }
  [[nodiscard]] std::size_t index_of(K key) const noexcept {
    // splitmix64 finalizer: root ids are raw RNG draws but task ids are
    // small sequential ints — mix so linear probing sees a spread index.
    auto x = static_cast<std::uint64_t>(key);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x) & mask();
  }

  void grow() { rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    size_ = 0;
    for (Slot& s : old) {
      if (s.key == EmptyKey) continue;
      // Re-insert without the load check (capacity is already sufficient).
      for (std::size_t i = index_of(s.key);; i = (i + 1) & mask()) {
        if (slots_[i].key == EmptyKey) {
          slots_[i].key = s.key;
          slots_[i].value = std::move(s.value);
          ++size_;
          break;
        }
      }
    }
  }

  void erase_slot(std::size_t i) noexcept {
    slots_[i].key = EmptyKey;
    slots_[i].value = V{};
    --size_;
    // Backward shift: walk the probe chain, pulling displaced entries back
    // so lookups never cross a hole mid-chain.
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask(); slots_[j].key != EmptyKey;
         j = (j + 1) & mask()) {
      const std::size_t home = index_of(slots_[j].key);
      // Move j into the hole iff the hole lies cyclically in [home, j).
      const bool wraps = home > j;
      const bool between =
          wraps ? (hole >= home || hole <= j) : (hole >= home && hole <= j);
      if (between && hole != j) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        slots_[j].key = EmptyKey;
        slots_[j].value = V{};
        hole = j;
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace tstorm::sim
