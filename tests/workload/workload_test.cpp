// Workload generators, external queue, and the three paper topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/system.h"
#include "workload/topologies.h"

// Counts heap allocations in this test binary, for the set-up cost checks
// below.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
// Library code (std::stable_sort's buffer) may allocate through the
// nothrow form and free through the sized delete; all use malloc/free.
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
// All out of line, so GCC does not pair an inlined malloc() or free() with
// the other side's operator (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tstorm::workload {
namespace {

// ---------------------------------------------------------- TextGenerator

TEST(TextGenerator, VocabularyDistinctAndSized) {
  TextGenerator gen;
  const auto& vocab = gen.vocabulary();
  EXPECT_EQ(vocab.size(), 3000u);
  std::set<std::string> set(vocab.begin(), vocab.end());
  EXPECT_EQ(set.size(), vocab.size());
}

TEST(TextGenerator, LineRespectsWordBounds) {
  TextGenerator::Options opt;
  opt.min_words_per_line = 3;
  opt.max_words_per_line = 5;
  TextGenerator gen(opt);
  for (int i = 0; i < 100; ++i) {
    const auto words = split_words(gen.next_line());
    EXPECT_GE(words.size(), 3u);
    EXPECT_LE(words.size(), 5u);
  }
}

TEST(TextGenerator, WordFrequencyIsSkewed) {
  TextGenerator gen;
  std::map<std::string, int> counts;
  for (int i = 0; i < 20000; ++i) counts[gen.next_word()]++;
  int max_count = 0;
  for (const auto& [w, c] : counts) max_count = std::max(max_count, c);
  // Zipf: the hottest word appears far more often than average.
  EXPECT_GT(max_count, 20000 / 100);
}

TEST(TextGenerator, DeterministicForSeed) {
  TextGenerator::Options opt;
  opt.seed = 99;
  TextGenerator a(opt), b(opt);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next_line(), b.next_line());
}

// Reference for the packed-key dedup: the same draws, with candidates kept
// as std::strings and deduplicated in an unordered_set by string equality.
// The length bound is raised past lengths whose words are all taken, as
// TextGenerator does (without it a vocabulary over 5,408 words never
// fills).
std::vector<std::string> reference_vocabulary(std::size_t n,
                                              std::uint64_t seed) {
  // Words of 2..len letters: 26^2 + ... + 26^len.
  const auto words_up_to = [](std::int64_t len) {
    std::uint64_t total = 0;
    std::uint64_t of_len = 26;
    for (std::int64_t k = 2; k <= len; ++k) total += (of_len *= 26);
    return total;
  };
  sim::Rng rng(seed);
  std::unordered_set<std::string> seen;
  std::vector<std::string> vocab;
  while (vocab.size() < n) {
    auto hi = 2 + static_cast<std::int64_t>(vocab.size() * 8 / n);
    while (words_up_to(hi) <= vocab.size()) ++hi;
    const auto len = static_cast<std::size_t>(rng.uniform_int(2, hi));
    auto w = rng.random_string(len);
    if (seen.insert(w).second) vocab.push_back(std::move(w));
  }
  return vocab;
}

TEST(TextGenerator, VocabularyMatchesStringSetReference) {
  // 5,409 is the smallest vocabulary that exhausts the two-letter words.
  for (const std::size_t n : {1u, 2u, 50u, 676u, 3000u, 5409u, 20000u}) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      TextGenerator::Options opt;
      opt.vocabulary = n;
      opt.seed = seed;
      const TextGenerator gen(opt);
      const auto& vocab = gen.vocabulary();
      ASSERT_EQ(vocab, reference_vocabulary(n, seed))
          << "vocabulary " << n << " seed " << seed;
      const auto [shortest, longest] = std::minmax_element(
          vocab.begin(), vocab.end(),
          [](const auto& a, const auto& b) { return a.size() < b.size(); });
      EXPECT_GE(shortest->size(), 2u);
      EXPECT_LE(longest->size(), 9u);
    }
  }
}

TEST(TextGenerator, ConstructionAllocationsIndependentOfVocabulary) {
  // Set-up cost gate: the vocabulary vector, the dedup table and the line
  // buffer, whatever the vocabulary size (words fit the small-string
  // buffer), so set-up does not allocate per word.
  for (const std::size_t n : {3000u, 30000u}) {
    TextGenerator::Options opt;
    opt.vocabulary = n;
    const auto before = g_allocs.load(std::memory_order_relaxed);
    const TextGenerator gen(opt);
    const auto allocs = g_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_LE(allocs, 4u) << "vocabulary " << n;
    EXPECT_EQ(gen.vocabulary().size(), n);
  }
}

TEST(TextGenerator, RejectsZipfExponentAtMostOne) {
  for (const double s :
       {1.0, 0.8, 0.0, std::numeric_limits<double>::quiet_NaN()}) {
    TextGenerator::Options opt;
    opt.zipf_exponent = s;
    EXPECT_THROW(TextGenerator{opt}, std::invalid_argument) << s;
  }
  TextGenerator::Options opt;
  opt.zipf_exponent = 1.01;  // ablation_skew's smallest exponent
  TextGenerator gen(opt);
  EXPECT_FALSE(gen.next_line().empty());
}

TEST(SplitWords, HandlesEdgeCases) {
  EXPECT_TRUE(split_words("").empty());
  EXPECT_EQ(split_words("one"), (std::vector<std::string>{"one"}));
  EXPECT_EQ(split_words("a b  c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_words(" x"), (std::vector<std::string>{"x"}));
}

// ----------------------------------------------------------- LogGenerator

TEST(LogGenerator, JsonLineHasExpectedFields) {
  LogGenerator gen;
  const auto line = gen.next_json_line();
  for (const char* field : {"\"ip\":", "\"method\":", "\"uri\":",
                            "\"status\":", "\"bytes\":", "\"agent\":"}) {
    EXPECT_NE(line.find(field), std::string::npos) << field;
  }
}

TEST(LogGenerator, RecordsVary) {
  LogGenerator gen;
  std::set<std::string> uris;
  for (int i = 0; i < 200; ++i) uris.insert(gen.next_record().uri);
  EXPECT_GT(uris.size(), 10u);
}

TEST(LogGenerator, RejectsZipfExponentAtMostOne) {
  for (const double s :
       {1.0, 0.8, 0.0, std::numeric_limits<double>::quiet_NaN()}) {
    LogGenerator::Options opt;
    opt.zipf_exponent = s;
    EXPECT_THROW(LogGenerator{opt}, std::invalid_argument) << s;
  }
  LogGenerator::Options opt;
  opt.zipf_exponent = 1.01;
  LogGenerator gen(opt);
  EXPECT_FALSE(gen.next_json_line().empty());
}

TEST(LogGenerator, StatusesFromRealisticSet) {
  LogGenerator gen;
  for (int i = 0; i < 200; ++i) {
    const auto s = gen.next_record().status;
    EXPECT_TRUE(s == 200 || s == 304 || s == 404 || s == 500);
  }
}

// -------------------------------------------------------- Golden digests
// The generators are the simulated input of every experiment: a change to
// their draw order silently changes every result downstream. These digests
// pin the exact output for fixed seeds, so a speed-up of either generator
// must reproduce it byte for byte.

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= 0xff;  // separator, so {"ab","c"} and {"a","bc"} differ
  return h * 0x100000001b3ULL;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t digest(const std::vector<std::string>& items) {
  std::uint64_t h = kFnvBasis;
  for (const auto& s : items) h = fnv1a(h, s);
  return h;
}

TEST(TextGenerator, GoldenDigests) {
  struct Case {
    std::uint64_t seed;
    std::uint64_t vocab;
    std::uint64_t lines;
  };
  for (const Case& c :
       {Case{7, 4249028481579087067ULL, 10384439073562577767ULL},
        Case{1, 3901971746526058805ULL, 376415836566406205ULL},
        Case{7919, 11807486479224748602ULL, 10700422708676277541ULL}}) {
    TextGenerator::Options opt;
    opt.seed = c.seed;
    TextGenerator gen(opt);
    std::uint64_t lines = kFnvBasis;
    for (int i = 0; i < 1000; ++i) lines = fnv1a(lines, gen.next_line());
    EXPECT_EQ(digest(gen.vocabulary()), c.vocab) << "seed " << c.seed;
    EXPECT_EQ(lines, c.lines) << "seed " << c.seed;
  }
}

TEST(LogGenerator, GoldenDigests) {
  struct Case {
    std::uint64_t seed;
    std::uint64_t uris;
    std::uint64_t ips;
    std::uint64_t lines;
  };
  for (const Case& c :
       {Case{11, 17304154008076912467ULL, 11345530078447033564ULL,
             6683915152219459588ULL},
        Case{1, 3755282529106378908ULL, 15924683744684091739ULL,
             2286822933102548792ULL},
        Case{7919, 15911918830933613119ULL, 16647292601178419087ULL,
             6914262977960825734ULL}}) {
    LogGenerator::Options opt;
    opt.seed = c.seed;
    LogGenerator gen(opt);
    std::uint64_t lines = kFnvBasis;
    for (int i = 0; i < 1000; ++i) lines = fnv1a(lines, gen.next_json_line());
    EXPECT_EQ(digest(gen.uris()), c.uris) << "seed " << c.seed;
    EXPECT_EQ(digest(gen.ips()), c.ips) << "seed " << c.seed;
    EXPECT_EQ(lines, c.lines) << "seed " << c.seed;
  }
}

// ---------------------------------------------------------- ExternalQueue

TEST(ExternalQueue, PushPopAccounting) {
  ExternalQueue q;
  EXPECT_FALSE(q.try_pop());
  q.push(3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.try_pop());
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.total_pushed(), 3u);
  EXPECT_EQ(q.total_popped(), 1u);
}

TEST(ExternalQueue, CapacityDropsExcess) {
  ExternalQueue q(2);
  EXPECT_TRUE(q.push());
  EXPECT_TRUE(q.push());
  EXPECT_FALSE(q.push());
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(QueueProducer, PushesAtConfiguredRate) {
  sim::Simulation sim;
  ExternalQueue q;
  QueueProducer producer(sim, q, 100.0);
  producer.start();
  sim.run_until(1.0);
  EXPECT_NEAR(static_cast<double>(q.total_pushed()), 100.0, 2.0);
  producer.set_rate(1000.0);
  sim.run_until(2.0);
  EXPECT_NEAR(static_cast<double>(q.total_pushed()), 1100.0, 10.0);
  producer.stop();
  sim.run_until(3.0);
  EXPECT_NEAR(static_cast<double>(q.total_pushed()), 1100.0, 10.0);
}

// ------------------------------------------------------------- Topologies

TEST(ThroughputTest, MatchesPaperParallelism) {
  const auto t = make_throughput_test();
  EXPECT_EQ(t.num_workers(), 40);
  EXPECT_EQ(t.component("spout").parallelism, 5);
  EXPECT_EQ(t.component("identity").parallelism, 15);
  EXPECT_EQ(t.component("counter").parallelism, 15);
  EXPECT_EQ(t.component(topo::kAckerComponent).parallelism, 10);
  EXPECT_EQ(t.total_executors(), 45);
  EXPECT_DOUBLE_EQ(t.component("spout").emit_interval, 0.005);
}

TEST(ThroughputTest, SpoutEmitsTenKilobyteTuples) {
  const auto t = make_throughput_test();
  auto spout = t.component("spout").spout_factory();
  const auto tuple = spout->next_tuple();
  ASSERT_TRUE(tuple.has_value());
  EXPECT_EQ(tuple->get_string(0).size(), 10u * 1024u);
}

TEST(Chain, StructureMatchesSectionThree) {
  ChainOptions opt;  // 1 spout, 4 bolts, 5 ackers
  const auto t = make_chain(opt);
  EXPECT_EQ(t.total_executors(), 1 + 4 + 5);
  // bolt1 <- spout, bolt2 <- bolt1, ...
  EXPECT_EQ(t.component("bolt1").inputs[0].source, "spout");
  EXPECT_EQ(t.component("bolt4").inputs[0].source, "bolt3");
}

TEST(WordCount, MatchesPaperStructure) {
  const auto w = make_word_count();
  const auto& t = w.topology;
  EXPECT_EQ(t.num_workers(), 20);
  EXPECT_EQ(t.component("reader").parallelism, 2);
  EXPECT_EQ(t.component("split").parallelism, 5);
  EXPECT_EQ(t.component("count").parallelism, 5);
  EXPECT_EQ(t.component("mongo").parallelism, 5);
  // count subscribes with fields grouping on "word".
  const auto& sub = t.component("count").inputs[0];
  EXPECT_EQ(sub.grouping, topo::GroupingType::kFields);
  EXPECT_EQ(sub.field_name, "word");
  ASSERT_NE(w.queue, nullptr);
}

TEST(WordCount, ReaderConsumesFromQueue) {
  const auto w = make_word_count();
  auto reader = w.topology.component("reader").spout_factory();
  EXPECT_FALSE(reader->next_tuple().has_value());  // queue empty
  w.queue->push();
  const auto t = reader->next_tuple();
  ASSERT_TRUE(t.has_value());
  EXPECT_FALSE(t->get_string(0).empty());
  EXPECT_FALSE(reader->next_tuple().has_value());
}

TEST(LogStream, MatchesFigureSevenStructure) {
  const auto w = make_log_stream();
  const auto& t = w.topology;
  EXPECT_EQ(t.component("log-spout").parallelism, 5);
  EXPECT_EQ(t.component("log-rules").parallelism, 5);
  EXPECT_EQ(t.component("indexer").parallelism, 5);
  EXPECT_EQ(t.component("counter").parallelism, 5);
  EXPECT_EQ(t.component("mongo-index").parallelism, 2);
  EXPECT_EQ(t.component("mongo-count").parallelism, 2);
  // Both indexer and counter consume the rules bolt's stream.
  EXPECT_EQ(t.component("indexer").inputs[0].source, "log-rules");
  EXPECT_EQ(t.component("counter").inputs[0].source, "log-rules");
}

TEST(WordCount, RunsEndToEnd) {
  sim::Simulation sim;
  core::StormSystem sys(sim);
  auto w = make_word_count();
  QueueProducer producer(sim, *w.queue, 100.0);
  producer.start();
  sys.submit(std::move(w.topology));
  sim.run_until(120.0);
  EXPECT_GT(sys.cluster().completion().total_completed(), 1000u);
}

TEST(LogStream, RunsEndToEnd) {
  sim::Simulation sim;
  core::StormSystem sys(sim);
  auto w = make_log_stream();
  QueueProducer producer(sim, *w.queue, 100.0);
  producer.start();
  sys.submit(std::move(w.topology));
  sim.run_until(120.0);
  EXPECT_GT(sys.cluster().completion().total_completed(), 1000u);
}

}  // namespace
}  // namespace tstorm::workload
