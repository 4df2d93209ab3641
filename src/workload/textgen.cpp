#include "workload/textgen.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "sim/flat_map.h"

namespace tstorm::workload {

TextGenerator::TextGenerator() : TextGenerator(Options{}) {}

TextGenerator::TextGenerator(Options options)
    : options_(options), rng_(options.seed) {
  if (!(options_.zipf_exponent > 1.0)) {  // also rejects NaN
    throw std::invalid_argument("TextGenerator: zipf_exponent must be > 1");
  }
  // Distinct pseudo-words, short ones first (like natural language, where
  // frequent words are short). A candidate is deduplicated by its base-27
  // packing, one digit c - 'a' + 1 per letter: exact and never 0 for up to
  // kMaxLetters letters, so no string is hashed or allocated per draw.
  constexpr std::size_t kMaxLetters = 13;  // 27^13 < 2^64 <= 27^14
  const std::size_t n = options_.vocabulary;
  sim::FlatMap<std::uint64_t, sim::Unit, 0> seen;
  seen.reserve(n);
  vocab_.reserve(n);
  // The length bound 2 + size*8/n is at most 9. Once every word up to the
  // bound is taken (vocabularies over 5,408 get there at 676 two-letter
  // words) no draw could succeed, so the bound is raised to the shortest
  // length that still has a free word. Until then that length never
  // exceeds the bound, so the draws are those of the plain bound.
  std::size_t room_len = 2;        // shortest length with a free word
  std::uint64_t of_len = 26 * 26;  // words of exactly room_len letters
  std::uint64_t room = of_len;     // words of 2..room_len letters
  std::size_t longest = 0;
  char w[kMaxLetters];
  while (vocab_.size() < n) {
    while (vocab_.size() >= room) {
      ++room_len;
      of_len *= 26;
      room += of_len;
    }
    const auto hi = std::max(2 + vocab_.size() * 8 / n, room_len);
    const auto len = static_cast<std::size_t>(
        rng_.uniform_int(2, static_cast<std::int64_t>(hi)));
    assert(len <= kMaxLetters);
    rng_.random_lowercase(w, len);
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < len; ++i) {
      key = key * 27 + static_cast<std::uint64_t>(w[i] - 'a' + 1);
    }
    bool inserted = false;
    seen.get_or_insert(key, &inserted);
    if (inserted) {
      vocab_.emplace_back(w, len);
      longest = std::max(longest, len);
    }
  }
  // Pre-size the line buffer for the longest possible line so steady-state
  // generation never reallocates it.
  line_.reserve(static_cast<std::size_t>(options_.max_words_per_line) *
                (longest + 1));
}

const std::string& TextGenerator::next_word() {
  const auto rank = rng_.zipf(vocab_.size(), options_.zipf_exponent);
  return vocab_[rank];
}

std::string_view TextGenerator::next_line() {
  const auto n = rng_.uniform_int(options_.min_words_per_line,
                                  options_.max_words_per_line);
  line_.clear();
  for (std::int64_t i = 0; i < n; ++i) {
    if (i > 0) line_ += ' ';
    line_ += next_word();
  }
  return line_;
}

std::vector<std::string> split_words(std::string_view line) {
  std::vector<std::string> words;
  std::size_t start = 0;
  while (start < line.size()) {
    const auto end = line.find(' ', start);
    if (end == std::string_view::npos) {
      if (start < line.size()) words.emplace_back(line.substr(start));
      break;
    }
    if (end > start) words.emplace_back(line.substr(start, end - start));
    start = end + 1;
  }
  return words;
}

}  // namespace tstorm::workload
