#include "workload/loggen.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string_view>

namespace tstorm::workload {
namespace {

const char* kMethods[] = {"GET", "GET", "GET", "GET", "POST", "HEAD"};
const char* kAgents[] = {
    "Mozilla/5.0 (Windows NT 6.1)", "Mozilla/5.0 (Macintosh)",
    "Googlebot/2.1", "curl/7.29.0"};
const int kStatuses[] = {200, 200, 200, 200, 200, 304, 404, 500};

}  // namespace

LogGenerator::LogGenerator() : LogGenerator(Options{}) {}

LogGenerator::LogGenerator(Options options)
    : options_(options), rng_(options.seed) {
  if (!(options_.zipf_exponent > 1.0)) {  // also rejects NaN
    throw std::invalid_argument("LogGenerator: zipf_exponent must be > 1");
  }
  // The draws are spelled out one statement each: their order is part of
  // the seeded output, and operands of one `+` chain would be evaluated in
  // an order the compiler chooses. Strings are composed in a stack buffer.
  char buf[32];
  // "/ecs/" dir(3) '/' page(6) ".aspx"; the page is drawn before the dir.
  constexpr std::string_view kUri = "/ecs/xxx/xxxxxx.aspx";
  std::copy(kUri.begin(), kUri.end(), buf);
  uris_.reserve(options_.distinct_uris);
  for (std::size_t i = 0; i < options_.distinct_uris; ++i) {
    rng_.random_lowercase(buf + 9, 6);
    rng_.random_lowercase(buf + 5, 3);
    uris_.emplace_back(buf, kUri.size());
  }
  ips_.reserve(options_.distinct_ips);
  for (std::size_t i = 0; i < options_.distinct_ips; ++i) {
    std::int64_t octets[4];
    octets[3] = rng_.uniform_int(1, 254);
    octets[2] = rng_.uniform_int(0, 255);
    octets[1] = rng_.uniform_int(0, 255);
    octets[0] = rng_.uniform_int(1, 223);
    char* p = buf;
    for (int k = 0; k < 4; ++k) {
      if (k > 0) *p++ = '.';
      p = std::to_chars(p, buf + sizeof buf, octets[k]).ptr;
    }
    ips_.emplace_back(buf, p);
  }
  // Longest possible line (fixed framing + bounded fields) fits well under
  // this; pre-sizing keeps next_json_line() allocation-free.
  line_.reserve(256);
}

LogRecord LogGenerator::next_record() {
  LogRecord r;
  r.client_ip = ips_[rng_.zipf(ips_.size(), options_.zipf_exponent)];
  r.method = kMethods[rng_.uniform_int(0, 5)];
  r.uri = uris_[rng_.zipf(uris_.size(), options_.zipf_exponent)];
  r.status = kStatuses[rng_.uniform_int(0, 7)];
  r.bytes = static_cast<std::uint64_t>(rng_.exponential(8.0 * 1024));
  r.user_agent = kAgents[rng_.uniform_int(0, 3)];
  return r;
}

std::string_view LogGenerator::next_json_line() {
  // Same RNG draw order as next_record(), but composed into the reused
  // buffer — no per-line string allocations.
  const std::string& ip =
      ips_[rng_.zipf(ips_.size(), options_.zipf_exponent)];
  const char* method = kMethods[rng_.uniform_int(0, 5)];
  const std::string& uri =
      uris_[rng_.zipf(uris_.size(), options_.zipf_exponent)];
  const int status = kStatuses[rng_.uniform_int(0, 7)];
  const auto bytes = static_cast<std::uint64_t>(rng_.exponential(8.0 * 1024));
  const char* agent = kAgents[rng_.uniform_int(0, 3)];

  char num[24];
  line_.clear();
  line_ += "{\"ip\":\"";
  line_ += ip;
  line_ += "\",\"method\":\"";
  line_ += method;
  line_ += "\",\"uri\":\"";
  line_ += uri;
  line_ += "\",\"status\":";
  line_.append(num, static_cast<std::size_t>(
                        std::to_chars(num, num + sizeof num, status).ptr -
                        num));
  line_ += ",\"bytes\":";
  line_.append(num, static_cast<std::size_t>(
                        std::to_chars(num, num + sizeof num, bytes).ptr -
                        num));
  line_ += ",\"agent\":\"";
  line_ += agent;
  line_ += "\"}";
  return line_;
}

}  // namespace tstorm::workload
