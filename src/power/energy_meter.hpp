/// \file energy_meter.hpp
/// \brief Workload-level CPU energy accounting under the paper's two
/// scenarios:
///
///  * computational energy (`Eidle = 0`): idle processors dissipate no
///    power — the paper's proxy for PowerNap-style systems;
///  * total energy (`Eidle = low`): idle processors consume the idle power
///    of the PowerModel (lowest gear, idle activity).
///
/// Busy core-seconds are accumulated per gear as jobs run; idle energy is
/// derived from the measurement horizon (first submission to last
/// completion) when the report is taken.
#pragma once

#include <vector>

#include "power/power_model.hpp"
#include "util/types.hpp"

namespace bsld::power {

/// Final energy numbers for one simulation run.
struct EnergyReport {
  double computational_joules = 0.0;  ///< Eidle = 0 scenario.
  double total_joules = 0.0;          ///< Eidle = low scenario.
  double idle_joules = 0.0;           ///< Idle share inside total_joules.
  double busy_core_seconds = 0.0;     ///< Sum over jobs of size * runtime.
  double idle_core_seconds = 0.0;     ///< cpus * horizon - busy.
  double sleep_core_seconds = 0.0;    ///< Subset of idle spent in C-states.
  double sleep_joules = 0.0;          ///< Energy of the sleeping intervals.
  Time horizon = 0;                   ///< Measurement span in seconds.
};

/// Accumulates per-job energies during a simulation.
class EnergyMeter {
 public:
  explicit EnergyMeter(const PowerModel& model);

  /// Records a completed execution: `size` CPUs ran at `gear` for
  /// `scaled_runtime` seconds (already dilated by the time model).
  void add_execution(std::int32_t size, GearIndex gear, Time scaled_runtime);

  /// Records idle core-seconds spent in a sleep C-state drawing
  /// `power_watts` instead of the model's idle power. The interval stays
  /// part of idle_core_seconds; report() swaps its price.
  void add_sleep(double core_seconds, double power_watts);

  /// Produces the report for a machine of `cpus` processors observed over
  /// `horizon` seconds. Throws bsld::Error when the horizon is too short to
  /// contain the recorded busy time (accounting bug guard).
  [[nodiscard]] EnergyReport report(std::int32_t cpus, Time horizon) const;

  [[nodiscard]] const PowerModel& model() const { return model_; }

 private:
  const PowerModel& model_;
  std::vector<double> core_seconds_;   ///< Indexed by gear.
  double sleep_core_seconds_ = 0.0;
  double sleep_joules_ = 0.0;
};

}  // namespace bsld::power
