/// \file observer_test.cpp
/// \brief The SimObserver seam: hook firing order, payload contents, and
/// the retain_jobs streaming mode, on hand-built workloads.
#include "sim/observer.hpp"

#include <gtest/gtest.h>

#include "sim/instruments.hpp"
#include "sim/simulation.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace bsld::sim {
namespace {

using testing::Models;
using testing::job;
using testing::workload;

/// Appends one tag per hook invocation, with payload snapshots.
class RecordingObserver final : public SimObserver {
 public:
  struct GearChange {
    JobId id;
    GearIndex from;
    GearIndex to;
    Time time;
    Time segment_seconds;
  };

  void on_run_begin(const RunBeginEvent& event) override {
    ++run_begins;
    cpus = event.cpus;
    gear_count = event.gear_count;
  }
  void on_submit(const SubmitEvent& event) override {
    sequence.push_back({'q', event.job.id, event.time});
  }
  void on_start(const StartEvent& event) override {
    sequence.push_back({'s', event.job.id, event.time});
  }
  void on_gear_change(const GearChangeEvent& event) override {
    gear_changes.push_back({event.id, event.from, event.to, event.time,
                            event.segment_seconds});
  }
  void on_finish(const FinishEvent& event) override {
    sequence.push_back({'f', event.outcome.id, event.outcome.end});
    outcomes.push_back(event.outcome);
    final_segments.push_back(event.final_segment_seconds);
  }
  void on_run_end(const RunEndEvent& event) override {
    ++run_ends;
    makespan = event.makespan;
    horizon = event.horizon;
  }

  struct Step {
    char kind;
    JobId id;
    Time time;
    friend bool operator==(const Step&, const Step&) = default;
  };
  std::vector<Step> sequence;
  std::vector<GearChange> gear_changes;
  std::vector<JobOutcome> outcomes;
  std::vector<Time> final_segments;
  int run_begins = 0;
  int run_ends = 0;
  std::int32_t cpus = 0;
  std::size_t gear_count = 0;
  Time makespan = 0;
  Time horizon = 0;
};

class ObserverTest : public ::testing::Test {
 protected:
  Models models_;
};

TEST_F(ObserverTest, HooksFireInEventOrderWithFullPayloads) {
  // Two sequential jobs on a 2-cpu machine: submit/submit, start 1,
  // finish 1, start 2, finish 2.
  const wl::Workload load =
      workload(2, {job(1, 0, 100, 120, 2), job(2, 10, 50, 60, 2)});
  const auto policy =
      core::make_policy(core::BasePolicy::kEasy, std::nullopt, "FirstFit");
  wl::VectorJobStream stream(load);
  Simulation simulation(stream, *policy, models_.power, models_.time);
  RecordingObserver observer;
  simulation.add_observer(observer);
  const SimulationResult result = simulation.run();

  EXPECT_EQ(observer.run_begins, 1);
  EXPECT_EQ(observer.run_ends, 1);
  EXPECT_EQ(observer.cpus, 2);
  EXPECT_EQ(observer.gear_count, models_.gears.size());
  EXPECT_EQ(observer.makespan, result.makespan);

  const std::vector<RecordingObserver::Step> expected{
      {'q', 1, 0},  {'s', 1, 0},  {'q', 2, 10},
      {'f', 1, 100}, {'s', 2, 100}, {'f', 2, 150}};
  EXPECT_EQ(observer.sequence, expected);

  // The streamed outcome equals the retained one, field for field.
  ASSERT_EQ(observer.outcomes.size(), 2u);
  EXPECT_EQ(observer.outcomes[0].id, result.jobs[0].id);
  EXPECT_EQ(observer.outcomes[0].end, result.jobs[0].end);
  EXPECT_EQ(observer.outcomes[1].wait(), result.jobs[1].wait());
  EXPECT_EQ(observer.outcomes[1].bsld, result.jobs[1].bsld);
  // No boosts: the final segment spans the whole execution.
  EXPECT_EQ(observer.final_segments[0], 100);
  EXPECT_EQ(observer.final_segments[1], 50);
}

TEST_F(ObserverTest, BoostSegmentsReportedThroughOnGearChange) {
  // DVFS(2, NO) starts the lone long job reduced; with raise limit 0, the
  // arrival of a second (waiting) job boosts it straight to Ftop.
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = std::nullopt;
  core::DynamicRaiseConfig raise;
  raise.queue_limit = 0;
  const auto policy = core::make_dynamic_raise_policy(dvfs, raise, "FirstFit");

  const wl::Workload load =
      workload(4, {job(1, 0, 1000, 1200, 4), job(2, 500, 100, 150, 4)});
  wl::VectorJobStream stream(load);
  Simulation simulation(stream, *policy, models_.power, models_.time);
  RecordingObserver observer;
  simulation.add_observer(observer);
  const SimulationResult result = simulation.run();

  ASSERT_EQ(result.boosted_jobs, 1);
  ASSERT_EQ(observer.gear_changes.size(), 1u);
  const auto& change = observer.gear_changes[0];
  EXPECT_EQ(change.id, 1);
  EXPECT_EQ(change.from, 0);
  EXPECT_EQ(change.to, models_.gears.top_index());
  EXPECT_EQ(change.time, 500);
  EXPECT_EQ(change.segment_seconds, 500);

  // Gear segments partition the execution: the mid-flight segment plus the
  // final one cover start..end exactly, and the outcome agrees.
  ASSERT_EQ(observer.outcomes.size(), 2u);
  const JobOutcome& boosted = observer.outcomes[0].id == 1
                                  ? observer.outcomes[0]
                                  : observer.outcomes[1];
  const Time final_segment = observer.outcomes[0].id == 1
                                 ? observer.final_segments[0]
                                 : observer.final_segments[1];
  EXPECT_TRUE(boosted.boosted);
  EXPECT_EQ(boosted.gear, 0);
  EXPECT_EQ(boosted.final_gear, models_.gears.top_index());
  EXPECT_EQ(change.segment_seconds + final_segment,
            boosted.end - boosted.start);
}

TEST_F(ObserverTest, StreamingModeDropsJobsButKeepsAggregates) {
  const wl::Workload load =
      workload(2, {job(1, 0, 700, 700, 2), job(2, 0, 700, 700, 2)});
  const auto retained = testing::run(load, models_);

  SimulationConfig config;
  config.retain_jobs = false;
  const auto streaming = testing::run(load, models_, core::BasePolicy::kEasy,
                                      std::nullopt, "FirstFit", config);

  EXPECT_TRUE(streaming.jobs.empty());
  EXPECT_EQ(streaming.job_count, 2);
  EXPECT_EQ(retained.job_count, 2);
  EXPECT_EQ(streaming.avg_bsld, retained.avg_bsld);
  EXPECT_EQ(streaming.avg_wait, retained.avg_wait);
  EXPECT_EQ(streaming.makespan, retained.makespan);
  EXPECT_EQ(streaming.utilization, retained.utilization);
  EXPECT_EQ(streaming.energy.total_joules, retained.energy.total_joules);
  EXPECT_EQ(streaming.jobs_per_gear, retained.jobs_per_gear);
}

TEST_F(ObserverTest, AddObserverAfterRunThrows) {
  const wl::Workload load = workload(2, {job(1, 0, 10, 20, 1)});
  const auto policy =
      core::make_policy(core::BasePolicy::kEasy, std::nullopt, "FirstFit");
  wl::VectorJobStream stream(load);
  Simulation simulation(stream, *policy, models_.power, models_.time);
  (void)simulation.run();
  RecordingObserver observer;
  EXPECT_THROW(simulation.add_observer(observer), Error);
}

TEST_F(ObserverTest, ObserversSeeIdenticalStreamsAcrossIdenticalRuns) {
  // Determinism at the observation layer: two separate simulations of the
  // same inputs deliver byte-for-byte identical event sequences.
  const wl::Workload load = workload(
      4, {job(1, 0, 1000, 1200, 3), job(2, 10, 500, 600, 4),
          job(3, 20, 100, 150, 1)});
  RecordingObserver first;
  RecordingObserver second;
  for (RecordingObserver* observer : {&first, &second}) {
    const auto policy =
        core::make_policy(core::BasePolicy::kEasy, std::nullopt, "FirstFit");
    wl::VectorJobStream stream(load);
    Simulation simulation(stream, *policy, models_.power, models_.time);
    simulation.add_observer(*observer);
    (void)simulation.run();
  }
  EXPECT_EQ(first.sequence, second.sequence);
  EXPECT_EQ(first.makespan, second.makespan);
}

}  // namespace
}  // namespace bsld::sim
