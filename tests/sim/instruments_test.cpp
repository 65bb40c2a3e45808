/// \file instruments_test.cpp
/// \brief Unit tests of the built-in instruments and the
/// InstrumentRegistry: incremental aggregates (including the trace-order
/// BSLD reorder buffer), time-series traces, and string-keyed
/// construction.
#include "sim/instruments.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sim/instrument_registry.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace bsld::sim {
namespace {

using testing::Models;
using testing::job;
using testing::workload;

/// Feeds hand-built events straight into an observer — instruments are
/// plain objects, so measurement logic is testable without a simulation.
struct EventFeeder {
  explicit EventFeeder(const wl::Workload& load) : load_(load) {}

  void begin(SimObserver& observer, std::int32_t cpus,
             std::size_t gear_count) {
    observer.on_run_begin(RunBeginEvent{
        load_.name, static_cast<std::int64_t>(load_.jobs.size()), cpus,
        gear_count, 600});
  }

  void finish(SimObserver& observer, std::size_t trace_index,
              const JobOutcome& outcome) {
    observer.on_finish(FinishEvent{outcome, trace_index,
                                   outcome.end - outcome.start});
  }

  const wl::Workload& load_;
};

JobOutcome outcome_for(JobId id, Time submit, Time start, Time end,
                       GearIndex gear, double bsld,
                       std::int32_t size = 1) {
  JobOutcome out;
  out.id = id;
  out.submit = submit;
  out.size = size;
  out.start = start;
  out.end = end;
  out.gear = gear;
  out.final_gear = gear;
  out.scaled_runtime = end - start;
  out.bsld = bsld;
  return out;
}

TEST(AggregateAccumulatorTest, OutOfOrderFinishesReproduceTraceOrderSum) {
  // Six jobs finishing in scrambled order; the accumulator's reorder
  // buffer must add their BSLDs in trace order, bit-identical to a naive
  // loop over a retained vector.
  const std::vector<double> bslds{1.25, 3.7, 1.0, 2.9, 10.125, 1.5};
  const wl::Workload load = workload(
      4, {job(1, 0, 10, 20, 1), job(2, 1, 10, 20, 1), job(3, 2, 10, 20, 1),
          job(4, 3, 10, 20, 1), job(5, 4, 10, 20, 1), job(6, 5, 10, 20, 1)});
  const std::vector<std::size_t> finish_order{2, 0, 4, 1, 5, 3};

  AggregateAccumulator accumulator;
  EventFeeder feeder(load);
  feeder.begin(accumulator, 4, 6);
  for (const std::size_t index : finish_order) {
    feeder.finish(accumulator,
                  index,
                  outcome_for(static_cast<JobId>(index + 1),
                              static_cast<Time>(index), 100, 150 + 10 * index,
                              index % 2 == 0 ? 0 : 5, bslds[index]));
  }

  double naive = 0.0;
  for (const double bsld : bslds) naive += bsld;
  EXPECT_EQ(accumulator.avg_bsld(), naive / 6.0);
  EXPECT_EQ(accumulator.count(), 6);
  EXPECT_EQ(accumulator.reduced_jobs(), 3);  // gear 0 jobs (top is 5)
  EXPECT_EQ(accumulator.jobs_per_gear()[0], 3);
  EXPECT_EQ(accumulator.jobs_per_gear()[5], 3);
  EXPECT_EQ(accumulator.makespan(), 200);
}

TEST(AggregateAccumulatorTest, UndrainedReorderBufferIsAnError) {
  const wl::Workload load =
      workload(2, {job(1, 0, 10, 20, 1), job(2, 1, 10, 20, 1)});
  AggregateAccumulator accumulator;
  EventFeeder feeder(load);
  feeder.begin(accumulator, 2, 6);
  // Only the second job finished: the trace-order sum cannot be formed.
  feeder.finish(accumulator, 1, outcome_for(2, 1, 5, 20, 5, 1.5));
  EXPECT_THROW((void)accumulator.avg_bsld(), Error);
}

TEST(JobRecorderTest, RecordsInTraceOrderRegardlessOfFinishOrder) {
  const wl::Workload load =
      workload(2, {job(7, 0, 10, 20, 1), job(9, 1, 10, 20, 1)});
  JobRecorder recorder;
  EventFeeder feeder(load);
  feeder.begin(recorder, 2, 6);
  feeder.finish(recorder, 1, outcome_for(9, 1, 5, 30, 5, 2.0));
  feeder.finish(recorder, 0, outcome_for(7, 0, 0, 10, 5, 1.0));
  ASSERT_EQ(recorder.jobs().size(), 2u);
  EXPECT_EQ(recorder.jobs()[0].id, 7);
  EXPECT_EQ(recorder.jobs()[1].id, 9);
}

TEST(WaitQueueTraceTest, TracksPerJobWaitsAndQueueDepth) {
  Models models;
  const wl::Workload load =
      workload(2, {job(1, 0, 700, 700, 2), job(2, 0, 700, 700, 2)});
  const auto policy =
      core::make_policy(core::BasePolicy::kEasy, std::nullopt, "FirstFit");
  wl::VectorJobStream stream(load);
  Simulation simulation(stream, *policy, models.power, models.time);
  WaitQueueTrace trace;
  simulation.add_observer(trace);
  (void)simulation.run();

  ASSERT_EQ(trace.waits().size(), 2u);
  EXPECT_EQ(trace.waits()[0].wait, 0);
  EXPECT_EQ(trace.waits()[1].wait, 700);
  EXPECT_EQ(trace.waits()[1].start, 700);

  // t=0: both submit, job 1 starts -> depth 1 (same-time coalescing);
  // t=700: job 2 starts -> depth 0.
  ASSERT_EQ(trace.depth().size(), 2u);
  EXPECT_EQ(trace.depth()[0].time, 0);
  EXPECT_EQ(trace.depth()[0].depth, 1);
  EXPECT_EQ(trace.depth()[1].time, 700);
  EXPECT_EQ(trace.depth()[1].depth, 0);

  // Job 1 starts before job 2 submits, so each saw a queue of just itself.
  EXPECT_EQ(trace.waits()[0].depth_after_submit, 1);
  EXPECT_EQ(trace.waits()[1].depth_after_submit, 1);

  std::ostringstream csv;
  trace.write_csv(csv);
  EXPECT_EQ(csv.str(),
            "job_index,submit_s,start_s,wait_s,queue_depth_after_submit\n"
            "0,0,0,0,1\n"
            "1,0,700,700,1\n");
}

TEST(UtilizationTraceTest, PiecewiseBusyCoresAndPower) {
  Models models;
  const wl::Workload load =
      workload(4, {job(1, 0, 100, 120, 3), job(2, 0, 200, 220, 1)});
  const auto policy =
      core::make_policy(core::BasePolicy::kEasy, std::nullopt, "FirstFit");
  wl::VectorJobStream stream(load);
  Simulation simulation(stream, *policy, models.power, models.time);
  UtilizationTrace trace(models.power);
  simulation.add_observer(trace);
  (void)simulation.run();

  const double top_power =
      models.power.active_power(models.gears.top_index());
  // t=0: both start (4 busy); t=100: job 1 ends (1 busy); t=200: idle.
  ASSERT_EQ(trace.samples().size(), 3u);
  EXPECT_EQ(trace.samples()[0].busy_cores, 4);
  EXPECT_DOUBLE_EQ(trace.samples()[0].utilization, 1.0);
  EXPECT_NEAR(trace.samples()[0].power_watts, 4.0 * top_power, 1e-9);
  EXPECT_EQ(trace.samples()[1].time, 100);
  EXPECT_EQ(trace.samples()[1].busy_cores, 1);
  EXPECT_EQ(trace.samples()[2].time, 200);
  EXPECT_EQ(trace.samples()[2].busy_cores, 0);
  EXPECT_NEAR(trace.samples()[2].power_watts, 0.0, 1e-9);
}

TEST(InstrumentRegistryTest, BuiltinsAreRegisteredSorted) {
  const std::vector<std::string> names = InstrumentRegistry::global().names();
  const std::vector<std::string> expected{"aggregates", "energy", "jobs",
                                          "utilization", "wait-trace"};
  for (const std::string& name : expected) {
    EXPECT_TRUE(InstrumentRegistry::global().has(name)) << name;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(InstrumentRegistryTest, MakeConstructsByNameAndRejectsUnknown) {
  Models models;
  const InstrumentContext context{models.power, models.time};
  const auto instrument =
      InstrumentRegistry::global().make("wait-trace", context);
  ASSERT_NE(instrument, nullptr);
  EXPECT_EQ(instrument->name(), "wait-trace");
  EXPECT_NE(dynamic_cast<WaitQueueTrace*>(instrument.get()), nullptr);

  try {
    (void)InstrumentRegistry::global().make("no-such-instrument", context);
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("wait-trace"),
              std::string::npos)
        << error.what();
  }
}

TEST(InstrumentRegistryTest, DownstreamRegistrationAndDuplicateRejection) {
  class NullInstrument final : public Instrument {
   public:
    [[nodiscard]] std::string name() const override { return "null"; }
    void write_csv(std::ostream& out) const override { out << "n\n"; }
  };
  InstrumentRegistry registry;
  registry.add("null", [](const InstrumentContext&) {
    return std::make_unique<NullInstrument>();
  });
  EXPECT_TRUE(registry.has("null"));
  EXPECT_THROW(registry.add("null",
                            [](const InstrumentContext&) {
                              return std::make_unique<NullInstrument>();
                            }),
               Error);
}

TEST(InstrumentRegistryTest, NullInstrumentIsAnError) {
  Models models;
  InstrumentRegistry registry;
  registry.add("null", [](const InstrumentContext&) {
    return std::unique_ptr<Instrument>();
  });
  try {
    (void)registry.make("null", InstrumentContext{models.power, models.time});
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what())
                  .find("InstrumentRegistry: instrument `null` factory "
                        "returned null"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace bsld::sim
