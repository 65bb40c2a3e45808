#include "power/time_model.hpp"

#include <cmath>

#include "util/error.hpp"

namespace bsld::power {

BetaTimeModel::BetaTimeModel(cluster::GearSet gears, double beta)
    : gears_(std::move(gears)), beta_(beta) {
  BSLD_REQUIRE(beta_ >= 0.0 && beta_ <= 1.0,
               "BetaTimeModel: beta must be in [0, 1]");
  coefficients_.reserve(gears_.size());
  for (GearIndex g = 0; g <= gears_.top_index(); ++g) {
    coefficients_.push_back(beta_ * (gears_.frequency_ratio(g) - 1.0) + 1.0);
  }
}

double BetaTimeModel::coefficient(GearIndex gear) const {
  BSLD_REQUIRE(gear >= 0 && static_cast<std::size_t>(gear) < coefficients_.size(),
               "BetaTimeModel: gear index out of range");
  return coefficients_[static_cast<std::size_t>(gear)];
}

double BetaTimeModel::coefficient_with_beta(GearIndex gear,
                                            double beta_override) const {
  if (beta_override < 0.0) return coefficient(gear);
  BSLD_REQUIRE(beta_override <= 1.0,
               "BetaTimeModel: per-job beta must be in [0, 1]");
  return beta_override * (gears_.frequency_ratio(gear) - 1.0) + 1.0;
}

Time BetaTimeModel::scale_duration_with_beta(Time duration_at_top,
                                             GearIndex gear,
                                             double beta_override) const {
  BSLD_REQUIRE(duration_at_top >= 0,
               "BetaTimeModel: durations must be non-negative");
  if (duration_at_top == 0) return 0;
  const double scaled = static_cast<double>(duration_at_top) *
                        coefficient_with_beta(gear, beta_override);
  return std::max<Time>(1, static_cast<Time>(std::llround(scaled)));
}

}  // namespace bsld::power
