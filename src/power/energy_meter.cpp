#include "power/energy_meter.hpp"

#include "util/error.hpp"

namespace bsld::power {

EnergyMeter::EnergyMeter(const PowerModel& model)
    : model_(model),
      core_seconds_(model.gears().size(), 0.0) {}

void EnergyMeter::add_execution(std::int32_t size, GearIndex gear,
                                Time scaled_runtime) {
  BSLD_REQUIRE(size > 0, "EnergyMeter: size must be positive");
  BSLD_REQUIRE(scaled_runtime >= 0, "EnergyMeter: negative runtime");
  BSLD_REQUIRE(gear >= 0 && static_cast<std::size_t>(gear) < core_seconds_.size(),
               "EnergyMeter: gear out of range");
  core_seconds_[static_cast<std::size_t>(gear)] +=
      static_cast<double>(size) * static_cast<double>(scaled_runtime);
}

void EnergyMeter::add_sleep(double core_seconds, double power_watts) {
  BSLD_REQUIRE(core_seconds >= 0.0, "EnergyMeter: negative sleep interval");
  BSLD_REQUIRE(power_watts >= 0.0, "EnergyMeter: negative sleep power");
  BSLD_REQUIRE(power_watts <= model_.idle_power() * (1.0 + 1e-9),
               "EnergyMeter: sleep power exceeds idle power");
  sleep_core_seconds_ += core_seconds;
  sleep_joules_ += core_seconds * power_watts;
}

EnergyReport EnergyMeter::report(std::int32_t cpus, Time horizon) const {
  BSLD_REQUIRE(cpus > 0, "EnergyMeter: cpus must be positive");
  BSLD_REQUIRE(horizon >= 0, "EnergyMeter: negative horizon");

  EnergyReport out;
  out.horizon = horizon;
  for (GearIndex g = 0; g <= model_.gears().top_index(); ++g) {
    const double cs = core_seconds_[static_cast<std::size_t>(g)];
    out.busy_core_seconds += cs;
    out.computational_joules += cs * model_.active_power(g);
  }
  const double capacity =
      static_cast<double>(cpus) * static_cast<double>(horizon);
  BSLD_REQUIRE(out.busy_core_seconds <= capacity * (1.0 + 1e-9),
               "EnergyMeter: busy core-seconds exceed machine capacity over "
               "the horizon");
  out.idle_core_seconds = std::max(0.0, capacity - out.busy_core_seconds);
  if (sleep_core_seconds_ == 0.0) {
    // Keep the exact historical expression when no sleep was recorded so
    // runs without the sleep manager stay bit-identical.
    out.idle_joules = out.idle_core_seconds * model_.idle_power();
  } else {
    BSLD_REQUIRE(
        sleep_core_seconds_ <= out.idle_core_seconds * (1.0 + 1e-9),
        "EnergyMeter: sleeping core-seconds exceed idle core-seconds");
    out.sleep_core_seconds = sleep_core_seconds_;
    out.sleep_joules = sleep_joules_;
    out.idle_joules =
        (out.idle_core_seconds - sleep_core_seconds_) * model_.idle_power() +
        sleep_joules_;
  }
  out.total_joules = out.computational_joules + out.idle_joules;
  return out;
}

}  // namespace bsld::power
