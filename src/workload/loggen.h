// Synthetic IIS-style web-server log lines, standing in for the Microsoft
// IIS logs (College of Engineering and Computer Science, Syracuse) used by
// the paper's Log Stream Processing experiments. LogStash-style JSON
// framing, Zipf-distributed URIs and client IPs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.h"

namespace tstorm::workload {

struct LogRecord {
  std::string client_ip;
  std::string method;
  std::string uri;
  int status = 200;
  std::uint64_t bytes = 0;
  std::string user_agent;
};

class LogGenerator {
 public:
  struct Options {
    std::size_t distinct_uris = 500;
    std::size_t distinct_ips = 2000;
    /// Must be > 1 (Rng::zipf's domain); the constructor throws
    /// std::invalid_argument otherwise, NaN included.
    double zipf_exponent = 1.3;
    std::uint64_t seed = 11;
  };

  LogGenerator();
  explicit LogGenerator(Options options);

  /// A structured record.
  LogRecord next_record();

  /// The record as the JSON value LogStash would push into Redis. The
  /// view aliases an internal buffer reused across calls (steady-state
  /// generation never allocates); invalidated by the next call.
  std::string_view next_json_line();

  /// The URI and client-IP tables, drawn once at construction.
  [[nodiscard]] const std::vector<std::string>& uris() const { return uris_; }
  [[nodiscard]] const std::vector<std::string>& ips() const { return ips_; }

 private:
  Options options_;
  sim::Rng rng_;
  std::vector<std::string> uris_;
  std::vector<std::string> ips_;
  std::string line_;  // reused JSON buffer
};

}  // namespace tstorm::workload
