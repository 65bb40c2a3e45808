/// \file observer_parity_test.cpp
/// \brief The observer refactor's contract, end to end on all five
/// archives: the default observer set reproduces the pre-observer
/// SimulationResult bit for bit (golden assertions), streaming
/// (retain_jobs=false) aggregates exactly match the retained-jobs path,
/// parallel and serial sweeps observe identical instrument streams, and
/// mid-flight boosts report identical gear segments.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "report/sinks.hpp"
#include "report/sweep.hpp"
#include "sim/instruments.hpp"

namespace bsld::report {
namespace {

RunSpec dvfs_spec(wl::Archive archive, std::int32_t jobs = 1500) {
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(archive, jobs);
  core::DvfsConfig config;
  config.bsld_threshold = 2.0;
  config.wq_threshold = 16;
  spec.policy.dvfs = config;
  return spec;
}

/// avg BSLD / avg wait recorded from the pre-observer implementation
/// (inline accumulation in sim::Simulation) at 1500 jobs, DVFS(2,16).
struct Golden {
  wl::Archive archive;
  double avg_bsld;
  double avg_wait;
};
constexpr Golden kGolden[] = {
    {wl::Archive::kCTC, 6.6193209596277605, 9885.873333333333},
    {wl::Archive::kSDSC, 102.92361397253214, 152024.27266666666},
    {wl::Archive::kSDSCBlue, 31.945993077994043, 44912.908000000003},
    {wl::Archive::kLLNLThunder, 1.4776295383179061, 344.32733333333334},
    {wl::Archive::kLLNLAtlas, 2.8084632783076806, 2668.9373333333333},
};

TEST(ObserverParityTest, DefaultObserverSetMatchesPreRefactorGoldens) {
  for (const Golden& golden : kGolden) {
    const RunResult result = run_one(dvfs_spec(golden.archive));
    EXPECT_NEAR(result.sim().avg_bsld, golden.avg_bsld,
                golden.avg_bsld * 1e-12)
        << wl::source_label(result.spec.workload);
    EXPECT_NEAR(result.sim().avg_wait, golden.avg_wait,
                golden.avg_wait * 1e-12)
        << wl::source_label(result.spec.workload);
  }
}

TEST(ObserverParityTest, StreamingAggregatesExactlyMatchRetainedPath) {
  for (const wl::Archive archive : wl::all_archives()) {
    const RunSpec retained = dvfs_spec(archive);
    RunSpec streaming = retained;
    streaming.retain_jobs = false;
    const auto results = run_all({retained, streaming});
    const sim::SimulationResult& a = results[0].sim();
    const sim::SimulationResult& b = results[1].sim();

    ASSERT_FALSE(a.jobs.empty());
    ASSERT_TRUE(b.jobs.empty());
    EXPECT_EQ(a.job_count, b.job_count);
    // Exact equality, not near: both paths are the same accumulators.
    EXPECT_EQ(a.avg_bsld, b.avg_bsld) << wl::archive_name(archive);
    EXPECT_EQ(a.avg_wait, b.avg_wait);
    EXPECT_EQ(a.reduced_jobs, b.reduced_jobs);
    EXPECT_EQ(a.boosted_jobs, b.boosted_jobs);
    EXPECT_EQ(a.jobs_per_gear, b.jobs_per_gear);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.energy.computational_joules, b.energy.computational_joules);
    EXPECT_EQ(a.energy.total_joules, b.energy.total_joules);

    // The retained vector reproduces the aggregates by naive trace-order
    // recomputation — the exact summation contract of the accumulator.
    double bsld_sum = 0.0;
    double wait_sum = 0.0;
    for (const sim::JobOutcome& job : a.jobs) {
      bsld_sum += job.bsld;
      wait_sum += static_cast<double>(job.wait());
    }
    const auto n = static_cast<double>(a.jobs.size());
    EXPECT_EQ(a.avg_bsld, bsld_sum / n) << wl::archive_name(archive);
    EXPECT_EQ(a.avg_wait, wait_sum / n);
  }
}

TEST(ObserverParityTest, ParallelEqualsSerialWithInstrumentsAttached) {
  std::vector<RunSpec> specs;
  for (const wl::Archive archive :
       {wl::Archive::kCTC, wl::Archive::kSDSC, wl::Archive::kLLNLAtlas}) {
    RunSpec spec = dvfs_spec(archive, 400);
    spec.instruments = {"wait-trace", "utilization", "energy"};
    specs.push_back(spec);
  }

  const auto serial = run_all(specs, 1);
  const auto parallel = run_all(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].sim().avg_bsld, parallel[i].sim().avg_bsld);
    ASSERT_EQ(serial[i].instruments.size(), 3u);
    ASSERT_EQ(parallel[i].instruments.size(), 3u);
    for (std::size_t k = 0; k < serial[i].instruments.size(); ++k) {
      std::ostringstream a;
      std::ostringstream b;
      serial[i].instruments[k]->write_csv(a);
      parallel[i].instruments[k]->write_csv(b);
      // Byte-for-byte: observer call ordering is deterministic.
      EXPECT_EQ(a.str(), b.str())
          << specs[i].label() << " " << serial[i].instruments[k]->name();
    }
  }
}

TEST(ObserverParityTest, BoostedRunsStreamIdenticallyToRetainedRuns) {
  // Dynamic raise exercises gear-change records on a real archive; streaming
  // and retained paths must agree on every aggregate, including the
  // boost-dependent energy split.
  RunSpec retained = dvfs_spec(wl::Archive::kSDSCBlue, 800);
  core::DynamicRaiseConfig raise;
  raise.queue_limit = 4;
  retained.policy.raise = raise;
  RunSpec streaming = retained;
  streaming.retain_jobs = false;

  const auto results = run_all({retained, streaming});
  const sim::SimulationResult& a = results[0].sim();
  const sim::SimulationResult& b = results[1].sim();
  ASSERT_GT(a.boosted_jobs, 0);
  EXPECT_EQ(a.boosted_jobs, b.boosted_jobs);
  EXPECT_EQ(a.avg_bsld, b.avg_bsld);
  EXPECT_EQ(a.energy.computational_joules, b.energy.computational_joules);
  EXPECT_EQ(a.energy.total_joules, b.energy.total_joules);
  EXPECT_EQ(a.makespan, b.makespan);

  // Boost bookkeeping is consistent inside the retained records.
  std::int64_t boosted = 0;
  for (const sim::JobOutcome& job : a.jobs) {
    if (job.boosted) {
      ++boosted;
      EXPECT_GT(job.final_gear, job.gear);
    } else {
      EXPECT_EQ(job.final_gear, job.gear);
    }
  }
  EXPECT_EQ(boosted, a.boosted_jobs);
}

TEST(ObserverParityTest, ReturnedInstrumentsOutliveTheRunPlatform) {
  RunSpec spec = dvfs_spec(wl::Archive::kCTC, 300);
  spec.instruments = {"energy"};
  const RunResult result = run_one(spec);
  const auto* probe = instrument_as<sim::EnergyProbe>(result, "energy");
  ASSERT_NE(probe, nullptr);
  // The probe's meter references the run's platform models; the result's
  // instruments co-own them, so post-run queries through the meter must
  // stay valid (the ASan job guards the lifetime).
  EXPECT_GT(probe->meter().model().gears().size(), 0u);
  EXPECT_EQ(probe->report().total_joules, result.sim().energy.total_joules);
  EXPECT_EQ(probe->utilization(), result.sim().utilization);
}

TEST(ObserverParityTest, JsonlSinkEmitsOneObjectPerRun) {
  RunSpec spec = dvfs_spec(wl::Archive::kCTC, 300);
  spec.instruments = {"wait-trace"};
  SweepRunner runner;
  const std::vector<RunResult> results = runner.run({spec, spec});
  std::ostringstream out;
  JsonlResultSink sink(out);
  for (std::size_t i = 0; i < results.size(); ++i) {
    sink.on_result(i, results[i]);
  }

  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"avg_bsld\":"), std::string::npos);
  EXPECT_NE(text.find("\"instruments\":[\"wait-trace\"]"), std::string::npos);
  EXPECT_NE(text.find("\"jobs\":300"), std::string::npos);
}

}  // namespace
}  // namespace bsld::report
