#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bsld::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  return n_ == 0 ? std::numeric_limits<double>::infinity() : min_;
}

double RunningStats::max() const {
  return n_ == 0 ? -std::numeric_limits<double>::infinity() : max_;
}

}  // namespace bsld::util
