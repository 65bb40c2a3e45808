#include "power/time_model.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bsld::power {
namespace {

TEST(TimeModelTest, TopGearHasUnitCoefficient) {
  const BetaTimeModel model(cluster::paper_gear_set(), 0.5);
  EXPECT_DOUBLE_EQ(model.coefficient(model.gears().top_index()), 1.0);
}

TEST(TimeModelTest, BetaZeroMakesFrequencyIrrelevant) {
  const BetaTimeModel model(cluster::paper_gear_set(), 0.0);
  for (GearIndex g = 0; g <= model.gears().top_index(); ++g) {
    EXPECT_DOUBLE_EQ(model.coefficient(g), 1.0);
    EXPECT_EQ(model.scale_duration_with_beta(12345, g, -1.0), 12345);
  }
}

TEST(TimeModelTest, BetaOneHalvingFrequencyDoublesRuntime) {
  // Eq. 5 with beta=1 and f = fmax/2: T(f)/T(fmax) = (2 - 1) + 1 = 2.
  const cluster::GearSet gears({{1.0, 1.0}, {2.0, 1.2}});
  const BetaTimeModel model(gears, 1.0);
  EXPECT_DOUBLE_EQ(model.coefficient(0), 2.0);
  EXPECT_EQ(model.scale_duration_with_beta(100, 0, -1.0), 200);
}

TEST(TimeModelTest, PaperCoefficientsBetaHalf) {
  const BetaTimeModel model(cluster::paper_gear_set(), 0.5);
  EXPECT_NEAR(model.coefficient(0), 0.5 * (2.3 / 0.8 - 1.0) + 1.0, 1e-12);
  EXPECT_NEAR(model.coefficient(0), 1.9375, 1e-12);
  EXPECT_NEAR(model.coefficient(2), 1.3214, 1e-4);
}

TEST(TimeModelTest, CoefficientsDecreaseWithGear) {
  const BetaTimeModel model(cluster::paper_gear_set(), 0.5);
  for (GearIndex g = 1; g <= model.gears().top_index(); ++g) {
    EXPECT_LT(model.coefficient(g), model.coefficient(g - 1));
  }
}

TEST(TimeModelTest, ScaleDurationRoundsToWholeSeconds) {
  const BetaTimeModel model(cluster::paper_gear_set(), 0.5);
  // 100 * 1.9375 = 193.75 -> 194.
  EXPECT_EQ(model.scale_duration_with_beta(100, 0, -1.0), 194);
  // Top gear is the identity.
  EXPECT_EQ(model.scale_duration_with_beta(100, 5, -1.0), 100);
}

TEST(TimeModelTest, ScaleDurationMonotoneInDuration) {
  const BetaTimeModel model(cluster::paper_gear_set(), 0.5);
  for (GearIndex g = 0; g <= model.gears().top_index(); ++g) {
    Time previous = 0;
    for (const Time d : {0, 1, 2, 10, 599, 600, 601, 86400}) {
      const Time scaled = model.scale_duration_with_beta(d, g, -1.0);
      EXPECT_GE(scaled, previous);
      previous = scaled;
    }
  }
}

TEST(TimeModelTest, PositiveDurationsStayPositive) {
  const BetaTimeModel model(cluster::paper_gear_set(), 0.5);
  EXPECT_EQ(model.scale_duration_with_beta(0, 0, -1.0), 0);
  EXPECT_GE(model.scale_duration_with_beta(1, 0, -1.0), 1);
}

TEST(TimeModelTest, ScaledAtLeastOriginal) {
  // Coef >= 1 always, so dilation can never shorten a job.
  const BetaTimeModel model(cluster::paper_gear_set(), 0.7);
  for (GearIndex g = 0; g <= model.gears().top_index(); ++g) {
    for (const Time d : {1, 17, 600, 100000}) {
      EXPECT_GE(model.scale_duration_with_beta(d, g, -1.0), d);
    }
  }
}

TEST(TimeModelTest, InvalidInputsRejected) {
  EXPECT_THROW(BetaTimeModel(cluster::paper_gear_set(), -0.1), Error);
  EXPECT_THROW(BetaTimeModel(cluster::paper_gear_set(), 1.1), Error);
  const BetaTimeModel model(cluster::paper_gear_set(), 0.5);
  EXPECT_THROW((void)model.coefficient(99), Error);
  EXPECT_THROW((void)model.scale_duration_with_beta(-1, 0, -1.0), Error);
}

// Property sweep: Coef(f) = beta*(fmax/f - 1) + 1 across betas and gears.
class CoefficientFormulaTest
    : public ::testing::TestWithParam<std::tuple<double, GearIndex>> {};

TEST_P(CoefficientFormulaTest, MatchesEquation5) {
  const auto& [beta, gear] = GetParam();
  const cluster::GearSet gears = cluster::paper_gear_set();
  const BetaTimeModel model(gears, beta);
  const double expected =
      beta * (gears.top().frequency_ghz / gears[gear].frequency_ghz - 1.0) + 1.0;
  EXPECT_NEAR(model.coefficient(gear), expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CoefficientFormulaTest,
    ::testing::Combine(::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                       ::testing::Values(0, 1, 2, 3, 4, 5)));

}  // namespace
}  // namespace bsld::power
