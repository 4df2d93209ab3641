// FlatMap and RingDeque: randomized differential tests against the
// std containers they replaced on the tuple hot path. The interesting
// machinery is FlatMap's backward-shift erase (a wrong cyclic-interval
// check silently breaks probe chains, i.e. loses acker XOR state) and
// RingDeque's wrap-around erase_at, so the sweeps run at high erase rates
// with small capacities to force wraps and shifts constantly.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/flat_map.h"
#include "sim/ring_deque.h"
#include "support/alloc_count.h"

namespace tstorm::sim {
namespace {

TEST(FlatMap, BasicInsertFindErase) {
  FlatMap<std::uint64_t, int, 0> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(42), nullptr);
  m[42] = 7;
  ASSERT_NE(m.find(42), nullptr);
  EXPECT_EQ(*m.find(42), 7);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.erase(42));
  EXPECT_FALSE(m.erase(42));
  EXPECT_EQ(m.find(42), nullptr);
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, GetOrInsertReportsInsertion) {
  FlatMap<int, int, -1> m;
  bool inserted = false;
  m.get_or_insert(5, &inserted) = 50;
  EXPECT_TRUE(inserted);
  EXPECT_EQ(m.get_or_insert(5, &inserted), 50);
  EXPECT_FALSE(inserted);
}

TEST(FlatMap, RandomizedMatchesUnorderedMap) {
  FlatMap<std::uint64_t, std::uint64_t, 0> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  std::mt19937_64 rng(1234);
  // Small key domain => constant collisions, erases mid-chain, re-inserts
  // into shifted chains.
  std::uniform_int_distribution<std::uint64_t> key(1, 300);
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t k = key(rng);
    switch (rng() % 3) {
      case 0: {  // insert/overwrite
        const std::uint64_t v = rng();
        flat[k] = v;
        ref[k] = v;
        break;
      }
      case 1: {  // erase
        EXPECT_EQ(flat.erase(k), ref.erase(k) > 0);
        break;
      }
      default: {  // lookup
        const auto* f = flat.find(k);
        const auto r = ref.find(k);
        ASSERT_EQ(f != nullptr, r != ref.end()) << "key " << k;
        if (f != nullptr) {
          EXPECT_EQ(*f, r->second);
        }
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Full-content sweep at the end.
  std::uint64_t seen = 0;
  flat.for_each([&](std::uint64_t k, std::uint64_t v) {
    ++seen;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(seen, ref.size());
}

TEST(FlatMap, EraseIfDrainsToEmptyInOneSweep) {
  FlatMap<std::uint64_t, std::uint64_t, 0> m;
  for (std::uint64_t k = 1; k <= 1000; ++k) m[k] = k * 2;
  // erase_if is exact: backward shifts during the pass never carry an
  // entry past the scan position unexamined.
  m.erase_if([](std::uint64_t, std::uint64_t) { return true; });
  EXPECT_TRUE(m.empty());
}

TEST(FlatMap, EraseIfMatchesUnorderedMapOnSmallTables) {
  // Value-based predicates on 16-64-slot tables, where probe chains wrap
  // past the end constantly: one pass must remove exactly the matching
  // entries and keep every other one reachable.
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 20000; ++trial) {
    FlatMap<std::uint64_t, std::uint64_t, 0> flat;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    // Up to 48 entries: 16, 32 or 64 slots at <= 75% load.
    const std::uint64_t n = 1 + rng() % 48;
    while (ref.size() < n) {
      const std::uint64_t k = 1 + rng() % 1000;
      const std::uint64_t v = rng() % 8;
      flat[k] = v;
      ref[k] = v;
    }
    const std::uint64_t mod = 1 + rng() % 4;
    const std::uint64_t rem = rng() % mod;
    const auto pred = [mod, rem](std::uint64_t, std::uint64_t v) {
      return v % mod == rem;
    };
    flat.erase_if(pred);
    std::erase_if(ref,
                  [&](const auto& kv) { return pred(kv.first, kv.second); });
    ASSERT_EQ(flat.size(), ref.size()) << "trial " << trial;
    for (const auto& [k, v] : ref) {
      const std::uint64_t* f = flat.find(k);
      ASSERT_NE(f, nullptr) << "trial " << trial << " key " << k;
      EXPECT_EQ(*f, v);
    }
  }
}

TEST(FlatMap, EmptyValueTakesNoSlotSpace) {
  static_assert(FlatMap<std::uint64_t, Unit, 0>::slot_bytes() ==
                sizeof(std::uint64_t));
  FlatMap<std::uint64_t, Unit, 0> set;
  bool inserted = false;
  set.get_or_insert(9, &inserted);
  EXPECT_TRUE(inserted);
  set.get_or_insert(9, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_TRUE(set.contains(9));
  EXPECT_TRUE(set.erase(9));
  EXPECT_TRUE(set.empty());
}

TEST(FlatMap, ReserveAvoidsGrowth) {
  std::mt19937_64 rng(17);
  // Sizes around the power-of-two load-factor thresholds (12 of 16, 24 of
  // 32, 768 of 1024, ...), where an off-by-one reserve would regrow.
  for (const std::size_t n :
       {0u, 1u, 12u, 13u, 24u, 25u, 767u, 768u, 769u, 3000u, 30000u}) {
    // n distinct keys, with repeats mixed in; never the empty key 0.
    std::vector<std::uint64_t> keys;
    std::unordered_set<std::uint64_t> oracle;
    while (oracle.size() < n) {
      keys.push_back(rng() % (4 * n) + 1);
      oracle.insert(keys.back());
    }
    FlatMap<std::uint64_t, Unit, 0> set;
    set.reserve(n);
    const auto before = heap_allocations();
    for (const std::uint64_t k : keys) set.get_or_insert(k);
    EXPECT_EQ(heap_allocations() - before, 0u)
        << "n " << n;
    EXPECT_EQ(set.size(), oracle.size());
    std::set<std::uint64_t> got;
    set.for_each([&](std::uint64_t k, Unit) { got.insert(k); });
    EXPECT_EQ(got, std::set<std::uint64_t>(oracle.begin(), oracle.end()))
        << "n " << n;
  }
}

TEST(FlatMap, ReserveIsOneAllocationAndKeepsEntries) {
  FlatMap<int, int, -1> m;
  for (int k = 0; k < 100; ++k) m[k] = k * 3;
  const auto before = heap_allocations();
  m.reserve(5000);
  EXPECT_EQ(heap_allocations() - before, 1u);
  m.reserve(10);  // never shrinks, never reallocates
  for (int k = 100; k < 5000; ++k) m[k] = k * 3;
  EXPECT_EQ(heap_allocations() - before, 1u);
  ASSERT_EQ(m.size(), 5000u);
  for (int k = 0; k < 5000; ++k) {
    const int* v = m.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k * 3);
  }
}

TEST(FlatMap, ClearKeepsCapacityAndWorks) {
  FlatMap<int, int, -1> m;
  for (int k = 0; k < 100; ++k) m[k] = k;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(50), nullptr);
  m[7] = 70;
  EXPECT_EQ(*m.find(7), 70);
}

TEST(RingDeque, FifoOrderAcrossWrap) {
  RingDeque<int> q;
  // Interleave pushes and pops so head walks around the ring repeatedly.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 3; ++i) q.push_back(next_in++);
    for (int i = 0; i < 2; ++i) {
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.pop_front(), next_out++);
    }
  }
  while (!q.empty()) EXPECT_EQ(q.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(RingDeque, RandomizedMatchesStdDeque) {
  RingDeque<std::uint64_t> ring;
  std::deque<std::uint64_t> ref;
  std::mt19937_64 rng(99);
  for (int op = 0; op < 100000; ++op) {
    switch (rng() % 4) {
      case 0:
      case 1: {  // push (biased: keeps some depth)
        const std::uint64_t v = rng();
        ring.push_back(v);
        ref.push_back(v);
        break;
      }
      case 2: {  // pop_front
        if (ref.empty()) break;
        EXPECT_EQ(ring.pop_front(), ref.front());
        ref.pop_front();
        break;
      }
      default: {  // erase_at a random index (the load-shedding path)
        if (ref.empty()) break;
        const std::size_t i = rng() % ref.size();
        ring.erase_at(i);
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    ASSERT_EQ(ring.size(), ref.size());
    if (!ref.empty()) {
      const std::size_t probe = rng() % ref.size();
      ASSERT_EQ(ring[probe], ref[probe]);
    }
  }
}

TEST(RingDeque, CapacityPlateausUnderSteadyChurn) {
  RingDeque<int> q;
  for (int i = 0; i < 100; ++i) q.push_back(i);
  const std::size_t cap = q.capacity();
  for (int round = 0; round < 10000; ++round) {
    q.push_back(round);
    (void)q.pop_front();
  }
  EXPECT_EQ(q.capacity(), cap);
}

TEST(RingDeque, ClearResetsButKeepsStorage) {
  RingDeque<int> q;
  for (int i = 0; i < 20; ++i) q.push_back(i);
  const std::size_t cap = q.capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap);
  q.push_back(5);
  EXPECT_EQ(q.front(), 5);
}

}  // namespace
}  // namespace tstorm::sim
