#include "power/power_model.hpp"

#include <cmath>

#include "util/error.hpp"

namespace bsld::power {

PowerModel::PowerModel(cluster::GearSet gears, PowerModelConfig config)
    : gears_(std::move(gears)), config_(config) {
  BSLD_REQUIRE(config_.activity_ratio >= 1.0,
               "PowerModel: activity_ratio must be >= 1");
  BSLD_REQUIRE(config_.static_fraction_at_top >= 0.0 &&
                   config_.static_fraction_at_top < 1.0,
               "PowerModel: static_fraction_at_top must be in [0, 1)");
  BSLD_REQUIRE(config_.top_active_power_watts > 0.0,
               "PowerModel: top_active_power_watts must be positive");

  const cluster::Gear& top = gears_.top();
  const double p_top = config_.top_active_power_watts;
  // P_active(top) = dynamic_unit * f_top * V_top^2 + alpha * V_top, with the
  // static share pinned at static_fraction_at_top.
  dynamic_unit_ = (1.0 - config_.static_fraction_at_top) * p_top /
                  (top.frequency_ghz * top.voltage_v * top.voltage_v);
  alpha_ = config_.static_fraction_at_top * p_top / top.voltage_v;

  // Sleep ladder sanity: states deepen over idle time — later states must
  // wait longer, draw no more power, and never exceed the idle power they
  // improve on. (Validated after alpha_/dynamic_unit_ so idle_power()
  // works.)
  const double idle = idle_power();
  for (std::size_t i = 0; i < config_.sleep_states.size(); ++i) {
    const SleepState& state = config_.sleep_states[i];
    BSLD_REQUIRE(state.power_watts >= 0.0,
                 "PowerModel: sleep-state power must be non-negative");
    BSLD_REQUIRE(state.power_watts <= idle * (1.0 + 1e-9),
                 "PowerModel: sleep-state power must not exceed idle power");
    BSLD_REQUIRE(state.enter_after_s >= 0,
                 "PowerModel: sleep-state enter_after_s must be non-negative");
    BSLD_REQUIRE(state.wake_latency_s >= 0,
                 "PowerModel: sleep-state wake_latency_s must be non-negative");
    if (i > 0) {
      BSLD_REQUIRE(
          state.enter_after_s > config_.sleep_states[i - 1].enter_after_s,
          "PowerModel: sleep-state enter_after_s must be strictly ascending");
      BSLD_REQUIRE(
          state.power_watts <= config_.sleep_states[i - 1].power_watts,
          "PowerModel: sleep-state power must be non-increasing with depth");
    }
  }
}

double PowerModel::dynamic_power(GearIndex gear) const {
  const cluster::Gear& g = gears_[gear];
  return dynamic_unit_ * g.frequency_ghz * g.voltage_v * g.voltage_v;
}

double PowerModel::static_power(GearIndex gear) const {
  return alpha_ * gears_[gear].voltage_v;
}

double PowerModel::active_power(GearIndex gear) const {
  return dynamic_power(gear) + static_power(gear);
}

double PowerModel::idle_power() const {
  const cluster::Gear& low = gears_.lowest();
  const double idle_dynamic = dynamic_unit_ / config_.activity_ratio *
                              low.frequency_ghz * low.voltage_v * low.voltage_v;
  return idle_dynamic + alpha_ * low.voltage_v;
}

double PowerModel::idle_fraction_of_top() const {
  return idle_power() / active_power(gears_.top_index());
}

void bind_config(util::ConfigCodec& codec, PowerModelConfig& config) {
  codec.field("power.activity_ratio", config.activity_ratio);
  codec.field("power.static_fraction_at_top", config.static_fraction_at_top);
  codec.field("power.top_active_power_watts", config.top_active_power_watts);
  codec.optional_columns(
      {"power.sleep.power_watts", "power.sleep.enter_after_s",
       "power.sleep.wake_latency_s"},
      config.sleep_states, &SleepState::power_watts,
      &SleepState::enter_after_s, &SleepState::wake_latency_s);
}

}  // namespace bsld::power
