/// \file instruments_test.cpp
/// \brief Unit tests of the built-in instruments and the
/// InstrumentRegistry: incremental aggregates (including the trace-order
/// BSLD reorder buffer), time-series traces, and string-keyed
/// construction.
#include "sim/instruments.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "pm/registry.hpp"
#include "sim/instrument_registry.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"
#include "workload/archives.hpp"

namespace bsld::sim {
namespace {

using testing::Models;
using testing::job;
using testing::workload;

/// Feeds hand-built records straight into an observer — instruments are
/// plain objects, so measurement logic is testable without a simulation.
/// Trace indices resolve to the workload's jobs.
struct EventFeeder final : JobResolver {
  explicit EventFeeder(const wl::Workload& load) : load_(load) {}

  [[nodiscard]] const wl::Job& job_at(std::uint64_t trace_index) const override {
    return load_.jobs.at(static_cast<std::size_t>(trace_index));
  }

  void begin(SimObserver& observer, std::int32_t cpus,
             std::size_t gear_count) {
    observer.on_run_begin(RunBeginEvent{
        load_.name, static_cast<std::int64_t>(load_.jobs.size()), cpus,
        gear_count, 600});
  }

  void finish(SimObserver& observer, std::size_t trace_index,
              const JobOutcome& outcome) {
    const BatchedEvent record = FinishRecord{outcome, trace_index,
                                             outcome.end - outcome.start};
    observer.on_events(*this, &record, 1);
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

TEST(AggregateAccumulatorTest, FinishesFarAheadOfTheNextIndexGrowTheBuffer) {
  // Job 0 finishes last, so every other BSLD waits in the reorder buffer,
  // up to 2999 positions ahead of the next trace index: far past the
  // buffer's initial size, across several growths, in a scrambled order.
  constexpr std::size_t kJobs = 3000;
  std::vector<wl::Job> jobs;
  std::vector<double> bslds;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back(job(static_cast<JobId>(i + 1), static_cast<Time>(i), 10,
                       20, 1));
    bslds.push_back(1.0 + static_cast<double>((i * 7919) % 1000) / 37.0);
  }
  const wl::Workload load = workload(4, jobs);
  std::vector<std::size_t> finish_order;
  for (std::size_t i = kJobs; i-- > 1;) finish_order.push_back(i);
  // Reverse, then swap pairs: neither sorted nor reverse-sorted.
  for (std::size_t i = 0; i + 1 < finish_order.size(); i += 2) {
    std::swap(finish_order[i], finish_order[i + 1]);
  }
  finish_order.push_back(0);

  AggregateAccumulator accumulator;
  EventFeeder feeder(load);
  feeder.begin(accumulator, 4, 6);
  for (const std::size_t index : finish_order) {
    feeder.finish(accumulator, index,
                  outcome_for(static_cast<JobId>(index + 1),
                              static_cast<Time>(index), 100, 200, 5,
                              bslds[index]));
    if (index != 0) {
      EXPECT_THROW((void)accumulator.avg_bsld(), Error);
    }
  }
  double naive = 0.0;
  for (const double bsld : bslds) naive += bsld;
  EXPECT_EQ(accumulator.avg_bsld(), naive / static_cast<double>(kJobs));
  EXPECT_EQ(accumulator.count(), static_cast<std::int64_t>(kJobs));
}

TEST(AggregateAccumulatorTest, FinishingATraceIndexTwiceIsAnError) {
  const wl::Workload load = workload(
      2, {job(1, 0, 10, 20, 1), job(2, 1, 10, 20, 1), job(3, 2, 10, 20, 1)});
  AggregateAccumulator accumulator;
  EventFeeder feeder(load);
  feeder.begin(accumulator, 2, 6);
  feeder.finish(accumulator, 2, outcome_for(3, 2, 5, 20, 5, 1.5));
  EXPECT_THROW(feeder.finish(accumulator, 2, outcome_for(3, 2, 5, 20, 5, 1.5)),
               Error);  // Still waiting in the buffer.
  feeder.finish(accumulator, 0, outcome_for(1, 0, 5, 20, 5, 1.5));
  EXPECT_THROW(feeder.finish(accumulator, 0, outcome_for(1, 0, 5, 20, 5, 1.5)),
               Error);  // Already summed.
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

/// Copies one run's whole record stream, plus every job a record names,
/// so the stream can be delivered again after the run.
class StreamCapture final : public SimObserver, public JobResolver {
 public:
  void on_run_begin(const RunBeginEvent& event) override {
    name_ = event.workload_name;
    begin = event;
    begin.workload_name = name_;
  }
  void on_events(const JobResolver& jobs, const BatchedEvent* events,
                 std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      records.push_back(events[i]);
      if (const auto* submit = std::get_if<SubmitRecord>(&events[i])) {
        jobs_.resize(std::max<std::size_t>(jobs_.size(),
                                           submit->trace_index + 1));
        jobs_[submit->trace_index] = jobs.job_at(submit->trace_index);
      }
    }
  }
  void on_run_end(const RunEndEvent& event) override { end = event; }

  [[nodiscard]] const wl::Job& job_at(std::uint64_t trace_index) const override {
    return jobs_.at(static_cast<std::size_t>(trace_index));
  }

  /// Delivers the captured run to `observer` in spans of at most `span`
  /// records.
  void replay(SimObserver& observer, std::size_t span) const {
    observer.on_run_begin(begin);
    for (std::size_t i = 0; i < records.size(); i += span) {
      observer.on_events(*this, records.data() + i,
                         std::min(span, records.size() - i));
    }
    observer.on_run_end(end);
  }

  RunBeginEvent begin;
  std::vector<BatchedEvent> records;
  RunEndEvent end;

 private:
  std::string name_;
  std::vector<wl::Job> jobs_;
};

std::string csv_of(const Instrument& instrument) {
  std::ostringstream out;
  instrument.write_csv(out);
  return out.str();
}

TEST(InstrumentGranularityTest, SpanBoundariesNeverChangeAMeasurement) {
  // A tight cap re-gears running jobs (gear-change records) and the sleep
  // manager emits sleep intervals, so every record kind reaches every
  // instrument. Each built-in instrument, with and without a sampling
  // cap, must render the same CSV live, from the captured stream as one
  // span, and from it one record per span.
  Models models;
  const wl::Workload load = wl::make_archive_workload(wl::Archive::kSDSC, 300);
  pm::PmSpec cap;
  cap.name = "cap-uniform";
  cap.cap_watts = 4000.0;
  pm::PmSpec sleep;
  sleep.name = "sleep";
  for (const pm::PmSpec& pm_spec : {cap, sleep}) {
    for (const std::uint64_t sample_cap : {0u, 64u}) {
      SCOPED_TRACE(pm_spec.name + " cap " + std::to_string(sample_cap));
      const InstrumentContext context{models.power, models.time,
                                      util::SamplePlan{{}, sample_cap, 0}};
      const auto manager =
          pm::PowerManagerRegistry::global().make(pm_spec, models.power);
      core::DvfsConfig dvfs;
      dvfs.bsld_threshold = 2.0;
      dvfs.wq_threshold = 16;
      const auto policy =
          core::make_policy(core::BasePolicy::kEasy, dvfs, "FirstFit");
      SimulationConfig config;
      config.power_manager = manager.get();
      wl::VectorJobStream stream = testing::stream_of(load);
      Simulation simulation(stream, *policy, models.power, models.time,
                            config);
      StreamCapture capture;
      simulation.add_observer(capture);
      std::vector<std::unique_ptr<Instrument>> live;
      for (const std::string& name : InstrumentRegistry::global().names()) {
        live.push_back(InstrumentRegistry::global().make(name, context));
        simulation.add_observer(*live.back());
      }
      (void)simulation.run();

      const auto has = [&](auto kind) {
        return std::any_of(capture.records.begin(), capture.records.end(),
                           [](const BatchedEvent& record) {
                             return std::holds_alternative<decltype(kind)>(
                                 record);
                           });
      };
      EXPECT_TRUE(has(SubmitRecord{}) && has(StartRecord{}) &&
                  has(FinishRecord{}) && has(pm::PmEvent{}));
      if (pm_spec.name == "cap-uniform") {
        EXPECT_TRUE(has(GearChangeEvent{}));
      }

      for (const auto& instrument : live) {
        SCOPED_TRACE(instrument->name());
        const auto whole =
            InstrumentRegistry::global().make(instrument->name(), context);
        const auto single =
            InstrumentRegistry::global().make(instrument->name(), context);
        capture.replay(*whole, capture.records.size());
        capture.replay(*single, 1);
        EXPECT_EQ(csv_of(*whole), csv_of(*instrument));
        EXPECT_EQ(csv_of(*single), csv_of(*whole));
      }
    }
  }
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
