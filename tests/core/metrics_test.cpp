#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bsld::core {
namespace {

/// Eq. 1 is Eq. 6 of a job that ran at the top gear.
double bounded_slowdown(Time wait, Time run_time,
                        Time floor = kDefaultBsldFloor) {
  return penalized_bsld(wait, run_time, run_time, floor);
}

TEST(MetricsTest, Equation1BoundedSlowdown) {
  // Long job: denominator is its runtime.
  EXPECT_DOUBLE_EQ(bounded_slowdown(1000, 1000), 2.0);
  // Short job: denominator floors at Th=600.
  EXPECT_DOUBLE_EQ(bounded_slowdown(600, 60), 1.1);
  // Never below 1 (the "bounded" part).
  EXPECT_DOUBLE_EQ(bounded_slowdown(0, 10), 1.0);
  EXPECT_DOUBLE_EQ(bounded_slowdown(0, 10000), 1.0);
}

TEST(MetricsTest, Equation1FloorBoundary) {
  // Runtime exactly Th: both branches agree.
  EXPECT_DOUBLE_EQ(bounded_slowdown(600, 600), 2.0);
  // Runtime just above Th uses the runtime.
  EXPECT_NEAR(bounded_slowdown(601, 601), 2.0, 1e-12);
}

TEST(MetricsTest, Equation2PredictedBsld) {
  // PredBSLD = max((WT + RQ*coef)/max(Th, RQ), 1).
  EXPECT_DOUBLE_EQ(predicted_bsld(0, 1000, 1.9375), 1.9375);
  EXPECT_DOUBLE_EQ(predicted_bsld(1000, 1000, 1.0), 2.0);
  // Short requested time: floor dominates the denominator.
  EXPECT_DOUBLE_EQ(predicted_bsld(0, 300, 2.0), 1.0);  // 600/600 = 1
  EXPECT_DOUBLE_EQ(predicted_bsld(600, 300, 2.0), 2.0);
}

TEST(MetricsTest, Equation6PenalizedBsld) {
  // Numerator uses the dilated runtime, denominator the top-gear runtime.
  EXPECT_DOUBLE_EQ(penalized_bsld(0, 1938, 1000), 1.938);
  EXPECT_DOUBLE_EQ(penalized_bsld(1000, 2000, 1000), 3.0);
  // Not penalized at Ftop: reduces to Eq. 1, (500 + 1000) / 1000.
  EXPECT_DOUBLE_EQ(penalized_bsld(500, 1000, 1000), 1.5);
}

TEST(MetricsTest, CustomFloor) {
  EXPECT_DOUBLE_EQ(bounded_slowdown(100, 50, 100), 1.5);
  EXPECT_DOUBLE_EQ(predicted_bsld(100, 50, 1.0, 100), 1.5);
}

TEST(MetricsTest, InvalidInputsRejected) {
  EXPECT_THROW((void)bounded_slowdown(-1, 100), Error);
  EXPECT_THROW((void)bounded_slowdown(0, 100, 0), Error);
  EXPECT_THROW((void)predicted_bsld(0, 100, 0.5), Error);  // coef < 1
}

// BSLD is monotone in wait and in dilation — the monotonicity the
// frequency-assignment loop relies on (if gear g fails the threshold, all
// lower gears fail too).
class BsldMonotonicityTest
    : public ::testing::TestWithParam<std::tuple<Time, Time>> {};

TEST_P(BsldMonotonicityTest, MonotoneInCoefficient) {
  const auto& [wait, requested] = GetParam();
  double previous = 0.0;
  for (const double coef : {1.0, 1.1, 1.3, 1.5, 1.9375}) {
    const double value = predicted_bsld(wait, requested, coef);
    EXPECT_GE(value, previous);
    previous = value;
  }
}

TEST_P(BsldMonotonicityTest, MonotoneInWait) {
  const auto& [wait, requested] = GetParam();
  EXPECT_LE(predicted_bsld(wait, requested, 1.5),
            predicted_bsld(wait + 1000, requested, 1.5));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BsldMonotonicityTest,
    ::testing::Combine(::testing::Values<Time>(0, 100, 10000),
                       ::testing::Values<Time>(60, 600, 7200)));

}  // namespace
}  // namespace bsld::core
