/// \file metrics.hpp
/// \brief BSLD (bounded slowdown) metric family (paper Eqs. 1, 2, 6).
///
/// The 600 s floor Th keeps very short jobs from dominating averages: any
/// job shorter than Th is slowed down relative to Th, not to its own tiny
/// runtime.
#pragma once

#include "util/types.hpp"

namespace bsld::core {

/// Default BSLD floor Th (paper: "600 seconds as HPC jobs shorter than 10
/// minutes can be assumed to be very short jobs").
inline constexpr Time kDefaultBsldFloor = 600;

/// Eq. 2: predicted BSLD of starting a job after `wait` seconds at a gear
/// with dilation `coefficient`, given the user's `requested` runtime:
/// max((wait + requested * coefficient) / max(Th, requested), 1).
double predicted_bsld(Time wait, Time requested, double coefficient,
                      Time floor = kDefaultBsldFloor);

/// Eq. 6: BSLD of a completed, possibly frequency-reduced job. The numerator
/// uses the penalized (dilated) runtime; the denominator keeps the runtime
/// at top frequency (see DESIGN.md §4, decision 5). At the top gear the two
/// runtimes are equal and this is Eq. 1: max((wait + run) / max(Th, run), 1).
double penalized_bsld(Time wait, Time penalized_run_time, Time run_time_at_top,
                      Time floor = kDefaultBsldFloor);

}  // namespace bsld::core
