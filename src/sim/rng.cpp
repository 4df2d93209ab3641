#include "sim/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace tstorm::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

double Rng::uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * uniform();
}

double Rng::exponential(double mean) {
  assert(mean > 0);
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mu, double sigma) {
  double u1;
  do {
    u1 = uniform();
  } while (u1 == 0.0);
  const double u2 = uniform();
  const double mag =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
  return mu + sigma * mag;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::uint64_t Rng::poisson(double mean) {
  assert(mean >= 0);
  if (mean > 64.0) {
    const double v = std::round(normal(mean, std::sqrt(mean)));
    return v < 0 ? 0 : static_cast<std::uint64_t>(v);
  }
  const double limit = std::exp(-mean);
  std::uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= uniform();
  } while (p > limit);
  return k - 1;
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  assert(n > 0);
  assert(s > 1.0);
  // Inverse-CDF via rejection (Devroye); adequate for workload generation.
  if (s != zipf_s_) {
    zipf_s_ = s;
    zipf_b_ = std::pow(2.0, s - 1.0);
    zipf_inv_ = -1.0 / (s - 1.0);
  }
  const double b = zipf_b_;
  for (;;) {
    const double u = uniform();
    const double v = uniform();
    const double x = std::floor(std::pow(u, zipf_inv_));
    if (x < 1.0 || x > static_cast<double>(n)) continue;
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<std::uint64_t>(x) - 1;
    }
  }
}

std::string Rng::random_string(std::size_t length) {
  std::string out(length, 'a');
  random_lowercase(out.data(), length);
  return out;
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace tstorm::sim
