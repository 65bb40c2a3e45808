#include "report/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <utility>

#include "util/error.hpp"
#include "workload/swf.hpp"

namespace bsld::report {
namespace {

TEST(RunSpecTest, LabelFormats) {
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kCTC);
  EXPECT_EQ(spec.label(), "CTC x1 EASY noDVFS");

  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 1.5;
  dvfs.wq_threshold = 16;
  spec.policy.dvfs = dvfs;
  spec.size_scale = 1.2;
  EXPECT_EQ(spec.label(), "CTC x1.2 EASY BSLD<=1.5,WQ<=16");

  spec.policy.dvfs->wq_threshold = std::nullopt;
  spec.policy.name = "fcfs";
  EXPECT_EQ(spec.label(), "CTC x1.2 FCFS BSLD<=1.5,WQ<=NO");

  // Derived, not hand-formatted: the dynamic-raise extension and non-archive
  // sources flow through the same components.
  spec.policy.name = "easy";
  core::DynamicRaiseConfig raise;
  raise.queue_limit = 16;
  spec.policy.raise = raise;
  EXPECT_EQ(spec.label(), "CTC x1.2 EASY+raise>16 BSLD<=1.5,WQ<=NO");
}

TEST(RunOneTest, DeterministicForEqualSpecs) {
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 400);
  const RunResult a = run_one(spec);
  const RunResult b = run_one(spec);
  EXPECT_DOUBLE_EQ(a.sim().avg_bsld, b.sim().avg_bsld);
  EXPECT_DOUBLE_EQ(a.sim().energy.total_joules, b.sim().energy.total_joules);
}

TEST(RunOneTest, SizeScaleChangesMachine) {
  RunSpec spec;
  spec.workload =
      wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 300);  // 128 CPUs
  spec.size_scale = 1.5;
  EXPECT_EQ(run_one(spec).sim().cpus, 192);
}

TEST(RunOneTest, ShrunkenMachineClampsJobSizes) {
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 300);
  spec.size_scale = 0.25;  // 32 CPUs; the trace has larger jobs
  const RunResult result = run_one(spec);
  EXPECT_EQ(result.sim().cpus, 32);
  for (const sim::JobOutcome& job : result.sim().jobs) {
    EXPECT_LE(job.size, 32);
  }
}

TEST(RunOneTest, BetaZeroMeansNoDilation) {
  RunSpec spec;
  spec.workload =
      wl::WorkloadSource::from_archive(wl::Archive::kLLNLThunder, 300);
  spec.beta = 0.0;
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 3.0;
  dvfs.wq_threshold = std::nullopt;
  spec.policy.dvfs = dvfs;
  const RunResult result = run_one(spec);
  for (const sim::JobOutcome& job : result.sim().jobs) {
    EXPECT_EQ(job.scaled_runtime, job.run_time_top);
  }
  // With beta = 0 reduction is free: everything runs at the lowest gear.
  EXPECT_EQ(result.sim().reduced_jobs,
            static_cast<std::int64_t>(result.sim().jobs.size()));
}

TEST(RunOneTest, AcceptsAllThreeWorkloadSources) {
  // Archive.
  RunSpec archive;
  archive.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 200);
  const RunResult from_archive = run_one(archive);
  EXPECT_EQ(from_archive.sim().jobs.size(), 200u);

  // SWF file: write the same trace to disk and replay it.
  const std::string path = ::testing::TempDir() + "experiment_test_sdsc.swf";
  wl::save_swf_file(path, wl::load_source(archive.workload));
  RunSpec swf;
  swf.workload = wl::WorkloadSource::from_swf(path);
  const RunResult from_swf = run_one(swf);
  std::remove(path.c_str());
  EXPECT_EQ(from_swf.sim().jobs.size(), from_archive.sim().jobs.size());
  EXPECT_DOUBLE_EQ(from_swf.sim().avg_bsld, from_archive.sim().avg_bsld);

  // Inline generator spec.
  wl::WorkloadSpec profile;
  profile.cpus = 32;
  profile.num_jobs = 100;
  RunSpec inline_spec;
  inline_spec.workload = wl::WorkloadSource::from_spec(profile, 5);
  const RunResult from_inline = run_one(inline_spec);
  EXPECT_EQ(from_inline.sim().jobs.size(), 100u);
  EXPECT_EQ(from_inline.sim().cpus, 32);
}

TEST(RunWorkloadTest, HandBuiltWorkloadSharesTheMachinery) {
  wl::Workload load;
  load.name = "tiny";
  load.cpus = 4;
  load.jobs = {{1, 0, 100, 120, 2, 0, -1.0}, {2, 0, 100, 120, 2, 0, -1.0}};
  const RunResult result = run_workload(load, RunSpec{});
  EXPECT_EQ(result.sim().cpus, 4);
  EXPECT_EQ(result.sim().jobs.size(), 2u);
  EXPECT_GT(result.sim().energy.total_joules, 0.0);
}

TEST(RunWorkloadTest, SizeScaleAppliesToHandBuiltWorkloads) {
  wl::Workload load;
  load.name = "tiny";
  load.cpus = 8;
  load.jobs = {{1, 0, 100, 120, 8, 0, -1.0}};
  RunSpec spec;
  spec.size_scale = 0.5;  // 4 CPUs; the job must be clamped
  const RunResult result = run_workload(load, spec);
  EXPECT_EQ(result.sim().cpus, 4);
  EXPECT_EQ(result.sim().jobs[0].size, 4);
}

TEST(RunWorkloadTest, UnsortedTraceRunsInStableSubmitOrder) {
  // Rows out of submit order with same-time ties (jobs 1/6 at 0, 3/2/4 at
  // 100, 5/7 at 300). The starts are pinned to the schedule the simulator
  // produced when it admitted the whole unsorted trace up front: same-time
  // jobs are submitted in trace order, not id order.
  wl::Workload load;
  load.name = "unsorted";
  load.cpus = 4;
  load.jobs = {{1, 0, 500, 600, 4, 0, -1.0},  {5, 300, 100, 200, 2, 0, -1.0},
               {6, 0, 20, 30, 1, 0, -1.0},    {3, 100, 50, 80, 2, 0, -1.0},
               {2, 100, 60, 100, 2, 0, -1.0}, {4, 100, 40, 50, 4, 0, -1.0},
               {7, 300, 10, 20, 1, 0, -1.0}};
  RunSpec reduced;
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  reduced.policy.dvfs = dvfs;
  const std::map<JobId, Time> top_starts{{1, 0},   {2, 520}, {3, 500}, {4, 580},
                                         {5, 620}, {6, 500}, {7, 500}};
  const std::map<JobId, Time> reduced_starts{{1, 0},    {2, 989}, {3, 969},
                                             {4, 1049}, {5, 1089}, {6, 969},
                                             {7, 969}};
  for (const auto& [spec, pinned] :
       {std::pair{RunSpec{}, top_starts}, std::pair{reduced, reduced_starts}}) {
    const RunResult result = run_workload(load, spec);
    std::map<JobId, Time> starts;
    for (const sim::JobOutcome& job : result.sim().jobs) {
      starts[job.id] = job.start;
    }
    EXPECT_EQ(starts, pinned);
  }
}

TEST(RunOneTest, InvalidScaleRejected) {
  RunSpec spec;
  spec.size_scale = 0.0;
  EXPECT_THROW((void)run_one(spec), Error);
}

TEST(NormalizedEnergyTest, Ratios) {
  sim::SimulationResult run;
  run.energy.computational_joules = 80.0;
  run.energy.total_joules = 90.0;
  sim::SimulationResult base;
  base.energy.computational_joules = 100.0;
  base.energy.total_joules = 100.0;
  const NormalizedEnergy norm = normalized_energy(run, base);
  EXPECT_DOUBLE_EQ(norm.computational, 0.8);
  EXPECT_DOUBLE_EQ(norm.total, 0.9);
}

TEST(NormalizedEnergyTest, DegenerateBaselineRejected) {
  sim::SimulationResult run;
  sim::SimulationResult base;  // zero energies
  EXPECT_THROW((void)normalized_energy(run, base), Error);
}

}  // namespace
}  // namespace bsld::report
