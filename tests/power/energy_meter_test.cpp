#include "power/energy_meter.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bsld::power {
namespace {

class EnergyMeterTest : public ::testing::Test {
 protected:
  PowerModel model_{cluster::paper_gear_set()};
};

TEST_F(EnergyMeterTest, SingleExecutionAccounting) {
  EnergyMeter meter(model_);
  const GearIndex top = model_.gears().top_index();
  meter.add_execution(4, top, 100);  // 400 core-seconds at Ftop

  const EnergyReport report = meter.report(8, 200);
  EXPECT_DOUBLE_EQ(report.busy_core_seconds, 400.0);
  EXPECT_NEAR(report.computational_joules, 400.0 * model_.active_power(top),
              1e-9);
  // Idle: 8 cpus * 200 s - 400 busy = 1200 idle core-seconds.
  EXPECT_DOUBLE_EQ(report.idle_core_seconds, 1200.0);
  EXPECT_NEAR(report.idle_joules, 1200.0 * model_.idle_power(), 1e-9);
  EXPECT_NEAR(report.total_joules,
              report.computational_joules + report.idle_joules, 1e-9);
}

TEST_F(EnergyMeterTest, LowerGearExecutionsCostLessPerSecond) {
  EnergyMeter low(model_);
  EnergyMeter top(model_);
  low.add_execution(1, 0, 1000);
  top.add_execution(1, model_.gears().top_index(), 1000);
  EXPECT_LT(low.report(1, 1000).computational_joules,
            top.report(1, 1000).computational_joules);
}

TEST_F(EnergyMeterTest, PerGearTallies) {
  EnergyMeter meter(model_);
  meter.add_execution(2, 0, 50);
  meter.add_execution(3, 0, 10);
  meter.add_execution(1, 5, 100);
  // 130 core-seconds at gear 0, 100 at gear 5, each priced at its gear.
  const EnergyReport report = meter.report(5, 100);
  EXPECT_DOUBLE_EQ(report.busy_core_seconds, 230.0);
  EXPECT_NEAR(report.computational_joules,
              130.0 * model_.active_power(0) + 100.0 * model_.active_power(5),
              1e-9);
}

TEST_F(EnergyMeterTest, ComputationalNeverExceedsTotal) {
  EnergyMeter meter(model_);
  meter.add_execution(4, 2, 500);
  const EnergyReport report = meter.report(4, 1000);
  EXPECT_LE(report.computational_joules, report.total_joules);
  EXPECT_GE(report.idle_joules, 0.0);
}

TEST_F(EnergyMeterTest, FullMachineHasNoIdleEnergy) {
  EnergyMeter meter(model_);
  meter.add_execution(4, 1, 1000);
  const EnergyReport report = meter.report(4, 1000);
  EXPECT_DOUBLE_EQ(report.idle_core_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.idle_joules, 0.0);
}

TEST_F(EnergyMeterTest, CapacityViolationDetected) {
  EnergyMeter meter(model_);
  meter.add_execution(4, 1, 1000);  // 4000 core-seconds
  EXPECT_THROW((void)meter.report(2, 1000), Error);  // capacity only 2000
}

TEST_F(EnergyMeterTest, ZeroRuntimeExecutionIsFree) {
  EnergyMeter meter(model_);
  meter.add_execution(4, 1, 0);
  EXPECT_DOUBLE_EQ(meter.report(4, 10).computational_joules, 0.0);
}

TEST_F(EnergyMeterTest, InvalidInputsRejected) {
  EnergyMeter meter(model_);
  EXPECT_THROW(meter.add_execution(0, 1, 10), Error);
  EXPECT_THROW(meter.add_execution(1, -1, 10), Error);
  EXPECT_THROW(meter.add_execution(1, 99, 10), Error);
  EXPECT_THROW(meter.add_execution(1, 1, -5), Error);
  EXPECT_THROW((void)meter.report(0, 10), Error);
  EXPECT_THROW((void)meter.report(4, -1), Error);
}

TEST_F(EnergyMeterTest, EnergyScaleInvariance) {
  // Doubling the anchor wattage doubles energies but not their ratio —
  // the property that makes the paper's normalized figures anchor-free.
  PowerModelConfig big;
  big.top_active_power_watts = 190.0;
  const PowerModel scaled(cluster::paper_gear_set(), big);
  EnergyMeter a(model_);
  EnergyMeter b(scaled);
  a.add_execution(2, 1, 300);
  b.add_execution(2, 1, 300);
  const EnergyReport ra = a.report(4, 500);
  const EnergyReport rb = b.report(4, 500);
  EXPECT_NEAR(rb.computational_joules / ra.computational_joules, 2.0, 1e-9);
  EXPECT_NEAR(rb.total_joules / ra.total_joules, 2.0, 1e-9);
}

}  // namespace
}  // namespace bsld::power
