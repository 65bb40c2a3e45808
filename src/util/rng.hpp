/// \file rng.hpp
/// \brief Deterministic, splittable random number generation.
///
/// Every stochastic component of the library (workload synthesis, property
/// tests) draws from an Rng seeded explicitly by the caller. Rng wraps
/// xoshiro256** seeded through SplitMix64, which gives high-quality streams,
/// a tiny state, and — unlike std::mt19937_64 + std::*_distribution — fully
/// reproducible values across standard library implementations because all
/// variate transforms are implemented here.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace bsld::util {

/// SplitMix64 step; used for seeding and for hashing stream labels.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stable 64-bit hash of a label, for deriving named sub-streams.
std::uint64_t hash_label(std::string_view label);

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// Satisfies UniformRandomBitGenerator, so it can also feed standard
/// distributions when exact cross-platform reproducibility is not needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the stream from a single 64-bit seed via SplitMix64 expansion.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Derives an independent child stream identified by `label`. Children of
  /// the same parent with distinct labels are statistically independent;
  /// the derivation is deterministic and does not advance this stream.
  [[nodiscard]] Rng split(std::string_view label) const;

  /// Uniform real in [0, 1).
  double uniform();
  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p);
  /// Exponential variate with the given mean (> 0).
  double exponential(double mean);
  /// Standard normal variate (Box-Muller, cached pair).
  double normal();
  /// Normal variate with mean/stddev.
  double normal(double mean, double stddev);
  /// Log-normal variate parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma);
  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  std::size_t discrete(const std::vector<double>& weights);
  /// discrete(weights) for a loop that draws from one weight vector many
  /// times: `total` must be discrete_total(weights), computed once. Draws
  /// the same index as discrete(weights) from the same state.
  std::size_t discrete(const std::vector<double>& weights, double total);
  /// The sum discrete() scales its draw by, in index order. Throws
  /// bsld::Error on a negative weight or when no weight is positive.
  static double discrete_total(const std::vector<double>& weights);

 private:
  std::array<std::uint64_t, 4> state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace bsld::util
