#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace bsld::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_label(std::string_view label) {
  // FNV-1a 64-bit, finalized through one SplitMix64 round for avalanche.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : label) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return splitmix64(h);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::split(std::string_view label) const {
  // Mix the current state with the label hash; do not advance this stream.
  std::uint64_t s = state_[0] ^ rotl(state_[2], 13) ^ hash_label(label);
  return Rng(splitmix64(s));
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  BSLD_REQUIRE(lo <= hi, "uniform(lo, hi): lo must not exceed hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  BSLD_REQUIRE(lo <= hi, "uniform_int(lo, hi): lo must not exceed hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~std::uint64_t{0}) - (~std::uint64_t{0}) % span;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  BSLD_REQUIRE(mean > 0.0, "exponential(): mean must be positive");
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::weibull(double shape, double scale) {
  BSLD_REQUIRE(shape > 0.0 && scale > 0.0,
               "weibull(): shape and scale must be positive");
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return scale * std::pow(-std::log(u), 1.0 / shape);
}

double Rng::discrete_total(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    BSLD_REQUIRE(w >= 0.0, "discrete(): weights must be non-negative");
    total += w;
  }
  BSLD_REQUIRE(total > 0.0, "discrete(): at least one weight must be positive");
  return total;
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
  return discrete(weights, discrete_total(weights));
}

std::size_t Rng::discrete(const std::vector<double>& weights, double total) {
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: land on the last bucket
}

}  // namespace bsld::util
