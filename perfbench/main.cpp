// Repository benchmark runner. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Prints notes (digest, sample counts, failed checks), then as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes the traced run's spans to DIR. See README.md.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\nworkloads:";
  for (const auto& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  out = std::stoull(s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string val = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      const auto& names = perfbench::workload_names();
      if (std::find(names.begin(), names.end(), val) == names.end()) {
        return usage("unknown workload " + val);
      }
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(val, n)) return usage("bad seed " + val);
      opt.seed = n;
    } else if (arg == "--seconds") {
      if (!parse_u64(val, n) || n < 1 || n > 3600) {
        return usage("bad seconds " + val);
      }
      opt.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage("bad trace " + val);
      opt.trace = val == "1";
    } else if (arg == "--trace-dir") {
      opt.trace_dir = val;
    } else {
      return usage("unknown flag " + arg);
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  for (const auto& line : out.notes) std::cout << line << "\n";
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : out.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << buf << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
