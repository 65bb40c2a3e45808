/// \file extensions_test.cpp
/// \brief End-to-end coverage of the future-work extensions wired through
/// the experiment layer: per-job beta and dynamic frequency raising.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "report/figures.hpp"
#include "testing/helpers.hpp"

namespace bsld {
namespace {

TEST(PerJobBetaTest, BetaZeroJobsDontDilate) {
  testing::Models models;
  wl::Workload load = testing::workload(
      4, {testing::job(1, 0, 1000, 1200, 2), testing::job(2, 0, 1000, 1200, 2)});
  load.jobs[0].beta = 0.0;  // frequency-insensitive
  load.jobs[1].beta = 1.0;  // fully CPU-bound
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = std::nullopt;
  const auto result =
      testing::run(load, models, core::BasePolicy::kEasy, dvfs);
  // beta=0: lowest gear is free -> chosen, runtime unchanged.
  EXPECT_EQ(result.jobs[0].gear, 0);
  EXPECT_EQ(result.jobs[0].scaled_runtime, 1000);
  // beta=1: coef(g) = fmax/f; lowest gear passing BSLD<=2 (zero wait) is
  // the one with fmax/f <= 2 -> 1.4 GHz (2.3/1.4 = 1.64), gear 2.
  EXPECT_EQ(result.jobs[1].gear, 2);
  EXPECT_EQ(result.jobs[1].scaled_runtime,
            static_cast<Time>(std::llround(1000 * (2.3 / 1.4))));
}

TEST(PerJobBetaTest, NegativeBetaFallsBackToModel) {
  testing::Models models;
  EXPECT_DOUBLE_EQ(models.time.coefficient_with_beta(0, -1.0),
                   models.time.coefficient(0));
  EXPECT_THROW((void)models.time.coefficient_with_beta(0, 1.5), Error);
}

TEST(PerJobBetaTest, RunSpecSamplesDeterministically) {
  report::RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kLLNLThunder, 300);
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = std::nullopt;
  spec.policy.dvfs = dvfs;
  spec.per_job_beta = {{0.2, 0.8}};
  const auto a = report::run_one(spec);
  const auto b = report::run_one(spec);
  EXPECT_DOUBLE_EQ(a.sim().avg_bsld, b.sim().avg_bsld);
  EXPECT_DOUBLE_EQ(a.sim().energy.total_joules, b.sim().energy.total_joules);
}

TEST(PerJobBetaTest, SpreadBracketsTheUniformCase) {
  // Mean-preserving beta spread keeps energy near the uniform-beta run
  // (coef is linear in beta, so only scheduling feedback differs).
  report::RunSpec uniform;
  uniform.workload =
      wl::WorkloadSource::from_archive(wl::Archive::kLLNLThunder, 800);
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = std::nullopt;
  uniform.policy.dvfs = dvfs;

  report::RunSpec spread = uniform;
  spread.per_job_beta = {{0.2, 0.8}};

  const auto results = report::run_all({uniform, spread});
  const double ratio = results[1].sim().energy.computational_joules /
                       results[0].sim().energy.computational_joules;
  EXPECT_NEAR(ratio, 1.0, 0.15);
}

TEST(DynamicRaiseSpecTest, RaiseThroughRunSpec) {
  report::RunSpec plain;
  plain.workload =
      wl::WorkloadSource::from_archive(wl::Archive::kLLNLThunder, 1000);
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = std::nullopt;
  plain.policy.dvfs = dvfs;

  report::RunSpec raised = plain;
  core::DynamicRaiseConfig raise;
  raise.queue_limit = 4;
  raised.policy.raise = raise;

  const auto results = report::run_all({plain, raised});
  // Raising can only help performance and costs some of the savings.
  EXPECT_LE(results[1].sim().avg_bsld, results[0].sim().avg_bsld + 1e-9);
  EXPECT_GE(results[1].sim().energy.computational_joules,
            results[0].sim().energy.computational_joules * 0.999);
  EXPECT_GT(results[1].sim().boosted_jobs, 0);
}

TEST(DynamicRaiseSpecTest, NoBoostsWithoutPressure) {
  report::RunSpec spec;
  spec.workload =
      wl::WorkloadSource::from_archive(wl::Archive::kLLNLAtlas, 300);
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 0;
  spec.policy.dvfs = dvfs;
  core::DynamicRaiseConfig raise;
  raise.queue_limit = 1000000;  // unreachable
  spec.policy.raise = raise;
  const auto result = report::run_one(spec);
  EXPECT_EQ(result.sim().boosted_jobs, 0);
}

TEST(PowerCapSpecTest, TightUniformCapRunsSdscToCompletion) {
  // A 4 kW cap keeps the manager re-gearing running jobs on almost every
  // start; these seeds used to evict a job while it was being started.
  for (const std::uint64_t seed : {1u, 5u, 9u, 10u}) {
    report::RunSpec spec;
    spec.workload =
        wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 1000, seed);
    core::DvfsConfig dvfs;
    dvfs.bsld_threshold = 2.0;
    dvfs.wq_threshold = 16;
    spec.policy.dvfs = dvfs;
    spec.pm.name = "cap-uniform";
    spec.pm.cap_watts = 4000.0;
    report::RunResult result;
    ASSERT_NO_THROW(result = report::run_one(spec)) << "seed " << seed;
    EXPECT_EQ(result.sim().job_count, 1000) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bsld
