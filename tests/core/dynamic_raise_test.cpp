#include "core/dynamic_raise.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "testing/helpers.hpp"
#include "testing/policy_factory.hpp"
#include "util/error.hpp"

namespace bsld::core {
namespace {

using testing::Models;
using testing::job;
using testing::workload;

class DynamicRaiseTest : public ::testing::Test {
 protected:
  sim::SimulationResult run_raise(const wl::Workload& load,
                                  DynamicRaiseConfig raise,
                                  double bsld_threshold = 3.0) {
    DvfsConfig dvfs;
    dvfs.bsld_threshold = bsld_threshold;
    dvfs.wq_threshold = std::nullopt;
    const auto policy = make_dynamic_raise_policy(dvfs, raise, "FirstFit");
    wl::VectorJobStream stream = testing::stream_of(load);
    return sim::run_simulation(stream, *policy, models_.power, models_.time);
  }

  Models models_;
};

TEST_F(DynamicRaiseTest, InvalidConfigRejected) {
  DynamicRaiseConfig raise;
  raise.queue_limit = -1;
  EXPECT_THROW((void)make_dynamic_raise_policy(std::nullopt, raise), Error);
}

TEST_F(DynamicRaiseTest, NameDescribesRule) {
  DynamicRaiseConfig raise;
  raise.queue_limit = 4;
  const auto policy = make_dynamic_raise_policy(std::nullopt, raise);
  EXPECT_EQ(policy->name(), "EASY[FirstFit,Ftop]+raise>4,top");
  raise.one_step = true;
  const auto stepper = make_dynamic_raise_policy(std::nullopt, raise);
  EXPECT_EQ(stepper->name(), "EASY[FirstFit,Ftop]+raise>4,step");
}

TEST_F(DynamicRaiseTest, NoPressureNoBoost) {
  DynamicRaiseConfig raise;
  raise.queue_limit = 16;
  const auto result =
      run_raise(workload(4, {job(1, 0, 5000, 5400, 2)}), raise, 2.0);
  EXPECT_EQ(result.jobs[0].gear, 0);
  EXPECT_FALSE(result.jobs[0].boosted);
  EXPECT_EQ(result.boosted_jobs, 0);
}

TEST_F(DynamicRaiseTest, QueuePressureRaisesRunningJob) {
  // Job 1 starts alone at the lowest gear, then a burst of full-machine
  // jobs floods the queue past the limit: job 1 must be raised to Ftop and
  // finish earlier than its fully-dilated end.
  std::vector<wl::Job> jobs = {job(1, 0, 10000, 10800, 2)};
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(job(i + 2, 100 + i, 500, 600, 4));
  }
  DynamicRaiseConfig raise;
  raise.queue_limit = 2;
  const auto result = run_raise(workload(4, jobs), raise);

  const auto& first = result.jobs[0];
  EXPECT_EQ(first.gear, 0);             // started reduced
  EXPECT_TRUE(first.boosted);
  EXPECT_EQ(first.final_gear, models_.gears.top_index());
  EXPECT_EQ(result.boosted_jobs, 1);
  // Ran ~102 s at gear 0 (coef 1.9375) then the rest at Ftop: total well
  // under the fully-dilated 19375 s and above the undilated 10000 s.
  EXPECT_LT(first.scaled_runtime, 11000);
  EXPECT_GT(first.scaled_runtime, 10000);
}

TEST_F(DynamicRaiseTest, BoostedRuntimeMatchesPiecewiseModel) {
  std::vector<wl::Job> jobs = {job(1, 0, 10000, 10800, 2)};
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(job(i + 2, 100 + i, 500, 600, 4));
  }
  DynamicRaiseConfig raise;
  raise.queue_limit = 2;
  const auto result = run_raise(workload(4, jobs), raise);
  const auto& first = result.jobs[0];
  // Boost happens at t=102 (the 3rd burst arrival pushes the queue to 3 >
  // 2). Work done by then: 102/1.9375 top-seconds; remainder at Ftop.
  const double done_top = 102.0 / 1.9375;
  const Time expected_end =
      102 + static_cast<Time>(std::llround(10000.0 - done_top));
  EXPECT_EQ(first.end, expected_end);
}

TEST_F(DynamicRaiseTest, OneStepRaisesGearByGear) {
  std::vector<wl::Job> jobs = {job(1, 0, 10000, 10800, 2)};
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(job(i + 2, 100 + i * 50, 500, 600, 4));
  }
  DynamicRaiseConfig raise;
  raise.queue_limit = 1;
  raise.one_step = true;
  const auto result = run_raise(workload(4, jobs), raise);
  const auto& first = result.jobs[0];
  EXPECT_TRUE(first.boosted);
  // Two pressure events -> two single-gear steps from gear 0.
  EXPECT_EQ(first.final_gear, 2);
}

TEST_F(DynamicRaiseTest, RaiseReducesBsldPenaltyVersusPlainDvfs) {
  // A congested trace where unconstrained DVFS hurts waits: raising under
  // pressure must not make performance worse.
  std::vector<wl::Job> jobs;
  for (int i = 0; i < 30; ++i) {
    jobs.push_back(job(i + 1, i * 300, 2000, 2200, 4 + (i % 4)));
  }
  const wl::Workload load = workload(8, jobs);

  DvfsConfig dvfs;
  dvfs.bsld_threshold = 3.0;
  dvfs.wq_threshold = std::nullopt;
  const auto plain = testing::run(load, models_, BasePolicy::kEasy, dvfs);

  DynamicRaiseConfig raise;
  raise.queue_limit = 2;
  const auto raised = run_raise(load, raise);

  EXPECT_LE(raised.avg_bsld, plain.avg_bsld);
  // Energy give-back: boosting burns more than plain DVFS but less than
  // the no-DVFS baseline.
  const auto baseline = testing::run(load, models_, BasePolicy::kEasy);
  EXPECT_GE(raised.energy.computational_joules,
            plain.energy.computational_joules);
  EXPECT_LE(raised.energy.computational_joules,
            baseline.energy.computational_joules * 1.0001);
}

TEST_F(DynamicRaiseTest, BoostGuardsInSimulation) {
  // boost_job on a non-running job / lowering gear must throw.
  const wl::Workload load = workload(2, {job(1, 0, 100, 200, 1)});
  const auto policy = make_policy(BasePolicy::kEasy, std::nullopt);
  wl::VectorJobStream stream(load);
  sim::Simulation simulation(stream, *policy, models_.power, models_.time);
  EXPECT_THROW(simulation.boost_job(1, 5), Error);  // nothing running yet
}

}  // namespace
}  // namespace bsld::core
