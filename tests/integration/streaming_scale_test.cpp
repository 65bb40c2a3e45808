/// \file streaming_scale_test.cpp
/// \brief The streaming pipeline's scale criteria: aggregates, per-job
/// schedules and instrument rows pinned to the values the simulator
/// produced when it still had a separate materialized path (including the
/// machine-scaling and per-job-beta stream decorators), and a 10^6-job run
/// whose per-job memory stays window-bounded — asserted through the
/// simulation's own peak_live_jobs counter, not process RSS — with every
/// time-series instrument capped at O(1) retention.
///
/// The million-job run uses an undersaturated inline generator profile:
/// archive profiles run near saturation, so their wait queue (and with it
/// the scheduler's per-event cost) grows with trace length — fine for the
/// paper's 5000-job evaluations, far too slow for a 10^6-job unit of CI.
/// Window-boundedness is a property of the pipeline, not of the workload.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "report/experiment.hpp"
#include "sim/instruments.hpp"
#include "util/hash.hpp"
#include "workload/source.hpp"
#include "workload/synthetic.hpp"

namespace bsld::report {
namespace {

/// A 256-CPU profile at ~35% offered load with short runtimes: the queue
/// stays shallow, so simulation cost is linear in jobs and the test's
/// duration is dominated by event throughput, not backlog scans.
wl::WorkloadSpec low_load_profile(std::int64_t jobs) {
  wl::WorkloadSpec spec;
  spec.name = "lowload";
  spec.cpus = 256;
  spec.num_jobs = jobs;
  spec.arrival.load_target = 0.35;
  spec.runtime.classes = {{1.0, 4.0, 1.0}};
  return spec;
}

/// Aggregates pinned bit-for-bit (doubles printed with 17 significant
/// digits round-trip exactly).
struct PinnedAggregates {
  std::int64_t job_count;
  double avg_bsld;
  double avg_wait;
  double total_joules;
  Time makespan;
  std::int64_t reduced_jobs;
  std::vector<std::int64_t> jobs_per_gear;
  double utilization;
  std::uint64_t events_processed;
};

void expect_pinned(const sim::SimulationResult& run,
                   const PinnedAggregates& pinned) {
  EXPECT_EQ(run.job_count, pinned.job_count);
  EXPECT_EQ(run.avg_bsld, pinned.avg_bsld);
  EXPECT_EQ(run.avg_wait, pinned.avg_wait);
  EXPECT_EQ(run.energy.total_joules, pinned.total_joules);
  EXPECT_EQ(run.makespan, pinned.makespan);
  EXPECT_EQ(run.reduced_jobs, pinned.reduced_jobs);
  EXPECT_EQ(run.jobs_per_gear, pinned.jobs_per_gear);
  EXPECT_EQ(run.utilization, pinned.utilization);
  EXPECT_EQ(run.events_processed, pinned.events_processed);
}

/// FNV-1a digest of every job's (id, start, end, gear), in trace order.
std::string schedule_digest(const std::vector<sim::JobOutcome>& jobs) {
  std::string text;
  for (const sim::JobOutcome& job : jobs) {
    text += std::to_string(job.id) + ',' + std::to_string(job.start) + ',' +
            std::to_string(job.end) + ',' + std::to_string(job.gear) + ';';
  }
  return util::hex64(util::fnv1a64(text));
}

/// FNV-1a digest of an instrument's CSV rows.
std::string rows_digest(const sim::Instrument& instrument) {
  std::ostringstream csv;
  instrument.write_csv(csv);
  return util::hex64(util::fnv1a64(csv.str()));
}

TEST(StreamingScaleTest, AggregatesMatchThePinnedRun) {
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_spec(low_load_profile(100000), 11);
  spec.retain_jobs = false;
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 4;
  spec.policy.dvfs = dvfs;

  const RunResult result = run_one(spec);
  expect_pinned(result.sim(),
                {100000, 1.022491745393862, 16.506519999999998,
                 7558420252.8463774, 1050366, 87975,
                 {83868, 2091, 1011, 602, 403, 12025}, 0.59333366074896754,
                 200000});
  // The run holds a window of the trace, not the trace.
  EXPECT_LT(result.sim().peak_live_jobs, result.sim().job_count / 10);
}

TEST(StreamingScaleTest, StreamDecoratorsMatchThePinnedTransforms) {
  // Machine scaling below 1 clamps job sizes and per-job beta draws one
  // value per trace position — both are stream decorators on the one
  // path, pinned against the former eager loops' results.
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 5000);
  spec.size_scale = 0.8;  // scaled machine smaller: sizes clamp.
  spec.per_job_beta = {{0.3, 0.7}};
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 1.5;
  spec.policy.dvfs = dvfs;
  spec.instruments = {"wait-trace", "utilization"};

  const RunResult result = run_one(spec);
  expect_pinned(result.sim(),
                {5000, 612.76235407453828, 976320.549, 64032058246.869568,
                 8276706, 5, {0, 4, 1, 0, 0, 4995}, 0.74495037224788152,
                 10000});
  EXPECT_EQ(schedule_digest(result.sim().jobs), "b1da1c518f8baa85");

  // Instrument output is pinned too (sampling off by default).
  const sim::Instrument* waits = result.instrument("wait-trace");
  const sim::Instrument* utilization = result.instrument("utilization");
  ASSERT_NE(waits, nullptr);
  ASSERT_NE(utilization, nullptr);
  EXPECT_EQ(rows_digest(*waits), "38ff3332bed2bd88");
  EXPECT_EQ(rows_digest(*utilization), "556398c54df5aac1");
}

TEST(StreamingScaleTest, MillionJobRunStaysWindowBounded) {
  constexpr std::int64_t kJobs = 1000000;
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_spec(low_load_profile(kJobs), 11);
  spec.retain_jobs = false;
  spec.instruments = {"wait-trace", "utilization"};
  spec.sample.cap = 512;

  const RunResult result = run_one(spec);
  EXPECT_EQ(result.sim().job_count, kJobs);
  EXPECT_TRUE(result.sim().jobs.empty());  // no per-job retention.

  // The windowed core's own high-water counter is the memory bound: jobs
  // resident at once are the one not yet submitted job plus the queue
  // backlog, the running jobs and the batched-delivery flush cadence —
  // never O(jobs). This run peaks near 1000.
  EXPECT_GT(result.sim().peak_live_jobs, 0);
  EXPECT_LT(result.sim().peak_live_jobs, 4096);

  // Sampled instruments cap their retention regardless of series length.
  const auto* waits =
      instrument_as<sim::WaitQueueTrace>(result, "wait-trace");
  ASSERT_NE(waits, nullptr);
  EXPECT_LE(waits->waits().size(), 512u);
  EXPECT_LE(waits->depth().size(), 512u);
  const auto* utilization =
      instrument_as<sim::UtilizationTrace>(result, "utilization");
  ASSERT_NE(utilization, nullptr);
  EXPECT_LE(utilization->samples().size(), 512u);
  EXPECT_GT(utilization->samples().size(), 0u);
}

}  // namespace
}  // namespace bsld::report
