// Synthetic text source standing in for the paper's Word Count input (the
// Gutenberg text of "Alice's Adventures in Wonderland" concatenated
// repeatedly). Words are drawn from a fixed vocabulary with a Zipf-like
// frequency distribution, matching the skew that makes fields grouping
// interesting (hot words hash to the same counter task).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.h"

namespace tstorm::workload {

class TextGenerator {
 public:
  struct Options {
    std::size_t vocabulary = 3000;
    /// Must be > 1 (Rng::zipf's domain); the constructor throws
    /// std::invalid_argument otherwise, NaN included.
    double zipf_exponent = 1.1;
    int min_words_per_line = 8;
    int max_words_per_line = 12;
    std::uint64_t seed = 7;
  };

  TextGenerator();
  explicit TextGenerator(Options options);

  /// One line of space-separated words. The view aliases an internal
  /// buffer reused across calls (pre-sized to the longest possible line,
  /// so steady-state generation never allocates); it is invalidated by
  /// the next next_line() call.
  std::string_view next_line();

  /// A single word draw (Zipf-distributed rank).
  const std::string& next_word();

  [[nodiscard]] const std::vector<std::string>& vocabulary() const {
    return vocab_;
  }
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_;
  sim::Rng rng_;
  std::vector<std::string> vocab_;
  std::string line_;  // reused line buffer
};

/// Splits a line into words (whitespace-separated). Allocates per word —
/// test/offline helper; the SplitSentence bolt tokenizes in place.
std::vector<std::string> split_words(std::string_view line);

}  // namespace tstorm::workload
