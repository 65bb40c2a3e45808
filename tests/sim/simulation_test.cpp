#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace bsld::sim {
namespace {

using testing::Models;
using testing::job;
using testing::workload;

class SimulationTest : public ::testing::Test {
 protected:
  Models models_;
};

TEST_F(SimulationTest, SingleJobRunsImmediately) {
  const auto result =
      testing::run(workload(4, {job(1, 0, 100, 200, 2)}), models_);
  ASSERT_EQ(result.jobs.size(), 1u);
  const JobOutcome& outcome = result.jobs[0];
  EXPECT_EQ(outcome.start, 0);
  EXPECT_EQ(outcome.end, 100);  // no DVFS: runtime unchanged
  EXPECT_EQ(outcome.gear, models_.gears.top_index());
  EXPECT_DOUBLE_EQ(outcome.bsld, 1.0);
  EXPECT_EQ(result.reduced_jobs, 0);
  EXPECT_EQ(result.makespan, 100);
}

TEST_F(SimulationTest, HandComputedEasySchedule) {
  // 4 CPUs. Job 1 takes the machine to t=1000 (requested 1200). Job 2 (4
  // cpus) reserves at 1200. Job 3 (1 cpu, 100 s <= shadow) backfills at
  // its submit time. Job 1 ends early at 1000 -> rescheduling starts job 2
  // then, not at 1200.
  const auto result = testing::run(
      workload(4, {job(1, 0, 1000, 1200, 4), job(2, 10, 500, 600, 4),
                   job(3, 20, 100, 150, 1)}),
      models_);
  // Job 3 cannot run before job 1 ends (all CPUs busy): EASY backfilling
  // backfills only onto idle CPUs.
  EXPECT_EQ(result.jobs[0].start, 0);
  EXPECT_EQ(result.jobs[1].start, 1000);  // early completion rescheduling
  EXPECT_EQ(result.jobs[2].start, 1500);  // after job 2 (FCFS preserved)
  EXPECT_EQ(result.jobs[1].wait(), 990);
}

TEST_F(SimulationTest, BackfillUsesIdleCpus) {
  // Job 1 holds 3/4 CPUs until 1000; job 2 wants all 4 -> reservation at
  // 1000 (requested end of job 1 is 1200 but actual end 1000 triggers
  // rescheduling; reservation is computed from requested: 1200).
  // Job 3 (1 cpu, short) backfills immediately on the free CPU.
  const auto result = testing::run(
      workload(4, {job(1, 0, 1000, 1200, 3), job(2, 10, 500, 600, 4),
                   job(3, 20, 100, 150, 1)}),
      models_);
  EXPECT_EQ(result.jobs[2].start, 20);   // backfilled at submit
  EXPECT_EQ(result.jobs[1].start, 1000); // head starts when job 1 really ends
}

TEST_F(SimulationTest, MetricsAggregation) {
  const auto result = testing::run(
      workload(2, {job(1, 0, 700, 700, 2), job(2, 0, 700, 700, 2)}), models_);
  // Job 2 waits 700 s; BSLD_2 = (700 + 700) / 700 = 2.
  EXPECT_DOUBLE_EQ(result.jobs[0].bsld, 1.0);
  EXPECT_DOUBLE_EQ(result.jobs[1].bsld, 2.0);
  EXPECT_DOUBLE_EQ(result.avg_bsld, 1.5);
  EXPECT_DOUBLE_EQ(result.avg_wait, 350.0);
  EXPECT_EQ(result.makespan, 1400);
  // Machine fully busy for the whole horizon.
  EXPECT_NEAR(result.utilization, 1.0, 1e-12);
}

TEST_F(SimulationTest, EnergyMatchesMeterByHand) {
  const auto result =
      testing::run(workload(2, {job(1, 0, 100, 100, 1)}), models_);
  const double active = models_.power.active_power(models_.gears.top_index());
  const double idle = models_.power.idle_power();
  EXPECT_NEAR(result.energy.computational_joules, 100.0 * active, 1e-6);
  // Horizon 100 s, 2 CPUs: 100 idle core-seconds.
  EXPECT_NEAR(result.energy.idle_joules, 100.0 * idle, 1e-6);
}

TEST_F(SimulationTest, BsldFloorConfigurable) {
  sim::SimulationConfig config;
  config.bsld_floor = 100;
  const auto result =
      testing::run(workload(1, {job(1, 0, 50, 60, 1), job(2, 0, 50, 60, 1)}),
                   models_, core::BasePolicy::kEasy, std::nullopt, "FirstFit",
                   config);
  // Job 2 waits 50 s: BSLD = (50 + 50)/max(100, 50) = 1.
  EXPECT_DOUBLE_EQ(result.jobs[1].bsld, 1.0);
}

TEST_F(SimulationTest, DvfsDilatesRuntimeAndCountsReduced) {
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = std::nullopt;
  const auto result = testing::run(
      workload(4, {job(1, 0, 1000, 1200, 2)}), models_,
      core::BasePolicy::kEasy, dvfs);
  // Lone long job, zero wait: predicted BSLD at the lowest gear is
  // coef(0) = 1.9375 <= 2 -> runs at 0.8 GHz. (In binary floating point
  // 1000 * coef lands just below 1937.5, so rounding gives 1937.)
  EXPECT_EQ(result.jobs[0].gear, 0);
  EXPECT_EQ(result.jobs[0].scaled_runtime, 1937);
  EXPECT_EQ(result.jobs[0].end, 1937);
  EXPECT_EQ(result.reduced_jobs, 1);
  EXPECT_EQ(result.jobs_per_gear[0], 1);
}

TEST_F(SimulationTest, EnlargedMachineViaConfig) {
  sim::SimulationConfig config;
  config.cpus = 8;
  const auto result =
      testing::run(workload(4, {job(1, 0, 100, 100, 4), job(2, 0, 100, 100, 4)}),
                   models_, core::BasePolicy::kEasy, std::nullopt, "FirstFit",
                   config);
  EXPECT_EQ(result.cpus, 8);
  // Both fit simultaneously on the enlarged machine.
  EXPECT_EQ(result.jobs[1].start, 0);
}

TEST_F(SimulationTest, InvalidWorkloadsRejected) {
  Models models;
  EXPECT_THROW(testing::run(workload(4, {}), models), Error);
  EXPECT_THROW(testing::run(workload(4, {job(1, 0, 10, 20, 5)}), models),
               Error);  // larger than machine
  EXPECT_THROW(
      testing::run(workload(4, {job(1, 0, 10, 20, 2), job(1, 5, 10, 20, 1)}),
                   models),
      Error);  // duplicate id
  EXPECT_THROW(testing::run(workload(4, {job(1, 0, 10, 0, 2)}), models),
               Error);  // requested < 1
}

TEST_F(SimulationTest, RunIsSingleShot) {
  const wl::Workload load = workload(2, {job(1, 0, 10, 20, 1)});
  const auto policy =
      core::make_policy(core::BasePolicy::kEasy, std::nullopt, "FirstFit");
  wl::VectorJobStream stream(load);
  Simulation simulation(stream, *policy, models_.power, models_.time);
  (void)simulation.run();
  EXPECT_THROW((void)simulation.run(), Error);
}

TEST_F(SimulationTest, MismatchedGearSetsRejected) {
  const wl::Workload load = workload(2, {job(1, 0, 10, 20, 1)});
  const auto policy =
      core::make_policy(core::BasePolicy::kEasy, std::nullopt, "FirstFit");
  const cluster::GearSet other({{1.0, 1.0}, {2.0, 1.2}});
  const power::BetaTimeModel other_time(other, 0.5);
  wl::VectorJobStream stream(load);
  EXPECT_THROW(Simulation(stream, *policy, models_.power, other_time), Error);
}

TEST_F(SimulationTest, EventCountIsTwoPerJob) {
  const auto result = testing::run(
      workload(4, {job(1, 0, 10, 20, 1), job(2, 3, 10, 20, 1)}), models_);
  EXPECT_EQ(result.events_processed, 4u);
}

TEST_F(SimulationTest, RepeatedRunsAreIdentical) {
  const wl::Workload load =
      workload(4, {job(1, 0, 100, 200, 2), job(2, 10, 50, 60, 1)});
  // Runs on one thread share no state: results are identical run over run.
  const auto first = testing::run(load, models_);
  const auto second = testing::run(load, models_);
  const auto third = testing::run(load, models_);
  ASSERT_EQ(second.jobs.size(), first.jobs.size());
  for (std::size_t i = 0; i < first.jobs.size(); ++i) {
    EXPECT_EQ(second.jobs[i].start, first.jobs[i].start);
    EXPECT_EQ(second.jobs[i].end, first.jobs[i].end);
    EXPECT_EQ(third.jobs[i].gear, first.jobs[i].gear);
  }
  EXPECT_DOUBLE_EQ(third.avg_bsld, first.avg_bsld);
}

TEST_F(SimulationTest, OneOutstandingSubmitReproducesThePinnedSchedule) {
  // Pulling the stream one submit at a time must pop the exact event
  // sequence of admitting the whole trace up front. The schedule is pinned
  // to the one the simulator produced when it still did the latter: job 4
  // starts beside job 3 once job 2 ends.
  const wl::Workload load = workload(
      4, {job(1, 0, 1000, 1200, 4), job(2, 10, 500, 600, 4),
          job(3, 20, 100, 150, 1), job(4, 1200, 50, 80, 2)});
  struct Pinned {
    JobId id;
    Time start;
    Time end;
  };
  const std::vector<Pinned> pinned{
      {1, 0, 1000}, {2, 1000, 1500}, {3, 1500, 1600}, {4, 1500, 1550}};

  const auto result = testing::run(load, models_);
  EXPECT_EQ(result.events_processed, 8u);
  EXPECT_EQ(result.avg_bsld, 1.7791666666666668);
  EXPECT_EQ(result.makespan, 1600);
  ASSERT_EQ(result.jobs.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(result.jobs[i].id, pinned[i].id);
    EXPECT_EQ(result.jobs[i].start, pinned[i].start);
    EXPECT_EQ(result.jobs[i].end, pinned[i].end);
    EXPECT_EQ(result.jobs[i].gear, models_.gears.top_index());
  }
}

TEST_F(SimulationTest, StreamingRunReportsWindowBoundedPeak) {
  // 300 one-at-a-time jobs: the window stays far below the trace length.
  std::vector<wl::Job> jobs;
  for (int i = 0; i < 300; ++i) {
    jobs.push_back(job(i + 1, i * 100, 50, 60, 4));
  }
  const wl::Workload load = workload(4, std::move(jobs));
  const auto result = testing::run(load, models_);
  EXPECT_EQ(result.job_count, 300);
  EXPECT_EQ(result.avg_bsld, 1.0);
  EXPECT_EQ(result.makespan, 29950);
  // Resident: the next, not yet submitted job, the one running job, and
  // the finished jobs awaiting the next 128-record flush (each job pushes
  // three records: submit, start, finish).
  EXPECT_GT(result.peak_live_jobs, 0);
  EXPECT_LE(result.peak_live_jobs, 1 + 1 + 128 / 3);
}

/// Emits a full observer batch from inside every start decision, the way a
/// cap manager re-gearing many running jobs does.
class BatchFillingManager final : public pm::PowerManager {
 public:
  [[nodiscard]] const char* name() const override { return "batch-filler"; }
  [[nodiscard]] pm::StartDecision on_job_start(
      pm::PmContext& context, JobId id, const std::vector<CpuId>& cpus,
      GearIndex gear) override {
    (void)cpus;
    for (int i = 0; i < 200; ++i) {
      pm::PmEvent event;
      event.kind = pm::PmEventKind::kThrottle;
      event.time = context.now();
      event.job = id;
      context.emit(event);
    }
    return pm::StartDecision{false, gear, 0};
  }
};

TEST_F(SimulationTest, JobStartingWhileItsBatchFlushesIsNotEvicted) {
  // The manager's events flush the batch while the job is being started;
  // the flush's eviction sweep must not retire the half-started job.
  BatchFillingManager manager;
  SimulationConfig config;
  config.power_manager = &manager;
  const auto result =
      testing::run(workload(4, {job(1, 0, 100, 200, 2)}), models_,
                   core::BasePolicy::kEasy, std::nullopt, "FirstFit", config);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].start, 0);
  EXPECT_EQ(result.jobs[0].end, 100);
  EXPECT_EQ(result.makespan, 100);
}

TEST_F(SimulationTest, StreamingRejectsUnsortedStreams) {
  // The bounded window cannot rewind time: an out-of-order submit in a
  // stream must be rejected, not silently mis-simulated.
  const wl::Workload unsorted =
      workload(4, {job(2, 100, 10, 20, 1), job(1, 0, 10, 20, 1)});
  const auto policy =
      core::make_policy(core::BasePolicy::kEasy, std::nullopt, "FirstFit");
  wl::VectorJobStream stream(unsorted);
  EXPECT_THROW(
      (void)run_simulation(stream, *policy, models_.power, models_.time),
      Error);
}

}  // namespace
}  // namespace bsld::sim
