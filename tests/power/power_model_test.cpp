#include "power/power_model.hpp"

#include <gtest/gtest.h>

#include "testing/config_value.hpp"
#include "util/error.hpp"

namespace bsld::power {
namespace {

using testing::config_value;

TEST(PowerModelTest, StaticShareAtTopIsCalibrated) {
  const PowerModel model(cluster::paper_gear_set());
  const GearIndex top = model.gears().top_index();
  EXPECT_NEAR(model.static_power(top) / model.active_power(top), 0.25, 1e-12);
}

TEST(PowerModelTest, TopActivePowerMatchesAnchor) {
  PowerModelConfig config;
  config.top_active_power_watts = 120.0;
  const PowerModel model(cluster::paper_gear_set(), config);
  EXPECT_NEAR(model.active_power(model.gears().top_index()), 120.0, 1e-9);
}

TEST(PowerModelTest, IdleIsTwentyOnePercentOfTopActive) {
  // Paper §4: "an idle processor consumes 21% of the power consumed by a
  // processor executing a job at the highest frequency".
  const PowerModel model(cluster::paper_gear_set());
  EXPECT_NEAR(model.idle_fraction_of_top(), 0.213, 0.001);
}

TEST(PowerModelTest, DynamicFollowsFV2) {
  const PowerModel model(cluster::paper_gear_set());
  // P_dyn ratio between two gears = (f1 V1^2)/(f2 V2^2).
  const double ratio = model.dynamic_power(0) / model.dynamic_power(5);
  EXPECT_NEAR(ratio, (0.8 * 1.0 * 1.0) / (2.3 * 1.5 * 1.5), 1e-12);
}

TEST(PowerModelTest, StaticLinearInVoltage) {
  const PowerModel model(cluster::paper_gear_set());
  const double ratio = model.static_power(0) / model.static_power(5);
  EXPECT_NEAR(ratio, 1.0 / 1.5, 1e-12);
}

TEST(PowerModelTest, ActivePowerStrictlyIncreasingInGear) {
  const PowerModel model(cluster::paper_gear_set());
  for (GearIndex g = 1; g <= model.gears().top_index(); ++g) {
    EXPECT_GT(model.active_power(g), model.active_power(g - 1));
  }
}

TEST(PowerModelTest, IdleBelowLowestActive) {
  const PowerModel model(cluster::paper_gear_set());
  EXPECT_LT(model.idle_power(), model.active_power(0));
  EXPECT_GT(model.idle_power(), 0.0);
}

TEST(PowerModelTest, ActivityRatioScalesIdleDynamicOnly) {
  PowerModelConfig high;
  high.activity_ratio = 5.0;
  const PowerModel base(cluster::paper_gear_set());
  const PowerModel model(cluster::paper_gear_set(), high);
  // Higher running/idle activity ratio => lower idle power, same active.
  EXPECT_LT(model.idle_power(), base.idle_power());
  EXPECT_NEAR(model.active_power(5), base.active_power(5), 1e-9);
}

TEST(PowerModelTest, ZeroStaticFraction) {
  PowerModelConfig config;
  config.static_fraction_at_top = 0.0;
  const PowerModel model(cluster::paper_gear_set(), config);
  EXPECT_NEAR(model.static_power(0), 0.0, 1e-12);
  EXPECT_NEAR(model.active_power(5), model.dynamic_power(5), 1e-9);
}

TEST(PowerModelTest, InvalidConfigsRejected) {
  PowerModelConfig config;
  config.activity_ratio = 0.5;
  EXPECT_THROW(PowerModel(cluster::paper_gear_set(), config), Error);
  config = {};
  config.static_fraction_at_top = 1.0;
  EXPECT_THROW(PowerModel(cluster::paper_gear_set(), config), Error);
  config = {};
  config.top_active_power_watts = 0.0;
  EXPECT_THROW(PowerModel(cluster::paper_gear_set(), config), Error);
}

TEST(PowerModelTest, ConfigFromFile) {
  const util::Config config = util::Config::parse(
      "power.activity_ratio = 3.0\n"
      "power.top_active_power_watts = 80\n");
  const PowerModelConfig parsed = util::read_config<PowerModelConfig>(config);
  EXPECT_DOUBLE_EQ(parsed.activity_ratio, 3.0);
  EXPECT_DOUBLE_EQ(parsed.top_active_power_watts, 80.0);
  EXPECT_DOUBLE_EQ(parsed.static_fraction_at_top, 0.25);  // default kept
}

TEST(PowerModelTest, SleepLadderRoundTripsThroughTheConfig) {
  PowerModelConfig config;
  config.sleep_states = {{10.0, 60, 1}, {2.0, 600, 30}};
  const util::Config written = util::write_config(config);
  EXPECT_EQ(config_value<std::string>(written, "power.sleep.power_watts", ""),
            "10, 2");
  EXPECT_EQ(config_value<std::string>(written, "power.sleep.enter_after_s", ""),
            "60, 600");
  EXPECT_EQ(
      config_value<std::string>(written, "power.sleep.wake_latency_s", ""),
      "1, 30");
  EXPECT_EQ(util::read_config<PowerModelConfig>(written), config);
  // Without a ladder no power.sleep.* key is written.
  EXPECT_EQ(util::write_config(PowerModelConfig{}).to_string().find("sleep"),
            std::string::npos);
  // The three lists come together or not at all.
  EXPECT_THROW((void)util::read_config<PowerModelConfig>(util::Config::parse(
                   "power.sleep.power_watts = 5\n")),
               Error);
}

}  // namespace
}  // namespace bsld::power
