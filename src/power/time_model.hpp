/// \file time_model.hpp
/// \brief The beta execution-time dilation model (paper §4, Eq. 5, from
/// Hsu & Feng / Freeh et al.):
///
///   T(f) / T(fmax) = beta * (fmax / f - 1) + 1
///
/// beta = 1: perfectly CPU-bound (halving f doubles runtime);
/// beta = 0: frequency-insensitive (memory/communication bound).
/// The paper assumes beta = 0.5 for all jobs.
#pragma once

#include "cluster/gears.hpp"
#include "util/config.hpp"
#include "util/types.hpp"

namespace bsld::power {

/// Frequency-to-runtime dilation.
class BetaTimeModel {
 public:
  /// Throws bsld::Error unless beta is in [0, 1].
  BetaTimeModel(cluster::GearSet gears, double beta = 0.5);

  /// Dilation coefficient Coef(f) = beta * (fmax/f - 1) + 1 (>= 1).
  [[nodiscard]] double coefficient(GearIndex gear) const;

  /// Coefficient with a per-job beta override; `beta_override < 0` falls
  /// back to the model beta (paper future work: per-job beta analysis).
  /// Throws bsld::Error when the override exceeds [0, 1].
  [[nodiscard]] double coefficient_with_beta(GearIndex gear,
                                             double beta_override) const;

  /// Duration at `gear` for a job that takes `duration_at_top` at the top
  /// gear, rounded to whole seconds (minimum 1 s for positive inputs), with
  /// a per-job beta override (< 0 = model beta).
  [[nodiscard]] Time scale_duration_with_beta(Time duration_at_top,
                                              GearIndex gear,
                                              double beta_override) const;

  [[nodiscard]] double beta() const { return beta_; }
  [[nodiscard]] const cluster::GearSet& gears() const { return gears_; }

 private:
  cluster::GearSet gears_;
  double beta_;
  std::vector<double> coefficients_;  ///< Precomputed per gear.
};

}  // namespace bsld::power
