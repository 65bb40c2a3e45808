/// \file stats.hpp
/// \brief Streaming mean/variance/min/max of a sample.
#pragma once

#include <cstddef>

namespace bsld::util {

/// Numerically stable streaming mean/variance (Welford) with min/max.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  /// Mean of the observed values; 0 when empty.
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance; 0 when fewer than two observations.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Smallest observation; +inf when empty.
  [[nodiscard]] double min() const;
  /// Largest observation; -inf when empty.
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace bsld::util
