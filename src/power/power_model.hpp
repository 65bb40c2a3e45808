/// \file power_model.hpp
/// \brief CPU power model of the paper's §4.
///
/// Total CPU power = dynamic + static.
///   P_dynamic = A * C * f * V^2   (Eq. 3)
///   P_static  = alpha * V        (Eq. 4, Butts & Sohi)
///
/// Calibration follows the paper:
///  * all applications share one average activity factor; a running CPU's
///    activity is `activity_ratio` (2.5x) that of an idle CPU;
///  * static power is `static_fraction_at_top` (25%) of the total active
///    power at the top gear, which pins alpha;
///  * an idle CPU runs at the lowest gear with the idle activity factor —
///    with the paper's constants that lands at ~21% of top active power.
///
/// Powers are reported in watts by anchoring the top-gear active power at
/// `top_active_power_watts`; energy ratios are invariant to that anchor.
#pragma once

#include <vector>

#include "cluster/gears.hpp"
#include "util/config.hpp"
#include "util/types.hpp"

namespace bsld::power {

/// One idle C-state of the SleepScale-style ladder consumed by the
/// `sleep` power manager: a CPU idle for `enter_after_s` seconds drops to
/// `power_watts` (below the model's idle power) and pays `wake_latency_s`
/// when an allocation claims it again.
struct SleepState {
  double power_watts = 0.0;  ///< Per-CPU power while in this state (W).
  Time enter_after_s = 0;    ///< Idle seconds before the state is entered.
  Time wake_latency_s = 0;   ///< Seconds to come back to active.

  friend bool operator==(const SleepState&, const SleepState&) = default;
};

/// Calibration constants (paper defaults).
struct PowerModelConfig {
  double activity_ratio = 2.5;          ///< running / idle activity factor.
  double static_fraction_at_top = 0.25; ///< share of static power at Ftop.
  double top_active_power_watts = 95.0; ///< anchor: P_active(Ftop) in W.
  /// Optional sleep-state ladder, ascending by enter_after_s with
  /// non-increasing power. Empty = the `sleep` manager uses its default
  /// ladder; never consulted unless that manager is selected.
  std::vector<SleepState> sleep_states;

  friend bool operator==(const PowerModelConfig&,
                         const PowerModelConfig&) = default;
};

/// Evaluates active/idle CPU power per gear.
class PowerModel {
 public:
  /// Throws bsld::Error on non-physical configuration values.
  PowerModel(cluster::GearSet gears, PowerModelConfig config = {});

  /// Power of a CPU executing a job at `gear` (W).
  [[nodiscard]] double active_power(GearIndex gear) const;

  /// Power of an idle CPU: lowest gear, idle activity factor (W).
  [[nodiscard]] double idle_power() const;

  /// Dynamic component of the active power at `gear` (W).
  [[nodiscard]] double dynamic_power(GearIndex gear) const;

  /// Static component at `gear`'s voltage (W).
  [[nodiscard]] double static_power(GearIndex gear) const;

  /// idle_power() / active_power(top): ~0.21 with paper constants.
  [[nodiscard]] double idle_fraction_of_top() const;

  [[nodiscard]] const cluster::GearSet& gears() const { return gears_; }
  [[nodiscard]] const PowerModelConfig& config() const { return config_; }

  /// The configured sleep-state ladder (possibly empty).
  [[nodiscard]] const std::vector<SleepState>& sleep_states() const {
    return config_.sleep_states;
  }

 private:
  cluster::GearSet gears_;
  PowerModelConfig config_;
  double dynamic_unit_ = 0.0;  ///< A_running * C, in W per (GHz * V^2).
  double alpha_ = 0.0;         ///< Static coefficient, W per volt.
};

/// The `power.*` keys (util::ConfigCodec). The sleep ladder is three
/// equal-length lists, written when it has states and read only when all
/// three keys are given.
void bind_config(util::ConfigCodec& codec, PowerModelConfig& config);

}  // namespace bsld::power
