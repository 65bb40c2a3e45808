// Closed backfill candidates. EasyBackfilling stops offering a queued job
// for backfill once FrequencyAssigner::backfill_closed() says it can never
// be accepted again. The differential test replays seeded deep-queue traces
// through EASY and EASY+raise twice: once with the assigner's hook in
// force, once behind a decorator that never closes a job (every retry, as
// before the hook existed). Per-job start, gear and end must agree. The
// property tests pin the hook's contract on the assigner alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "cluster/first_fit.hpp"
#include "core/dynamic_raise.hpp"
#include "core/easy.hpp"
#include "core/frequency.hpp"
#include "testing/helpers.hpp"
#include "util/rng.hpp"

namespace bsld::core {
namespace {

using testing::Models;

/// Forwards everything to a BsldThresholdAssigner. With `forward_closed`
/// it also forwards backfill_closed() and counts the jobs it closes;
/// without, it never closes a job.
class ClosureProbe final : public FrequencyAssigner {
 public:
  ClosureProbe(DvfsConfig config, bool forward_closed, std::int64_t& closed)
      : inner_(config), forward_closed_(forward_closed), closed_(closed) {}

  [[nodiscard]] GearIndex reservation_gear(const SchedulerContext& ctx,
                                           const wl::Job& job, Time start,
                                           std::size_t wq_size) const override {
    return inner_.reservation_gear(ctx, job, start, wq_size);
  }
  [[nodiscard]] std::optional<GearIndex> backfill_gear(
      const SchedulerContext& ctx, const wl::Job& job,
      util::FunctionRef<bool(GearIndex)> feasible,
      std::size_t wq_size) const override {
    return inner_.backfill_gear(ctx, job, feasible, wq_size);
  }
  [[nodiscard]] bool backfill_closed(const SchedulerContext& ctx,
                                     const wl::Job& job,
                                     Time now) const override {
    if (!forward_closed_) return false;
    const bool closed = inner_.backfill_closed(ctx, job, now);
    closed_ += closed ? 1 : 0;
    return closed;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  BsldThresholdAssigner inner_;
  bool forward_closed_;
  std::int64_t& closed_;
};

/// A trace that keeps the queue deep: arrivals outpace a 64-CPU machine,
/// submit times collide, requests overestimate (or match) runtimes, and
/// sizes mix serial, mid-size and full-machine jobs.
wl::Workload deep_queue_trace(std::uint64_t seed, bool per_job_beta) {
  util::Rng rng(seed);
  constexpr std::int32_t kCpus = 64;
  std::vector<wl::Job> jobs;
  Time submit = 0;
  for (JobId id = 1; id <= 300; ++id) {
    submit += 10 * rng.uniform_int(0, 12);
    const std::int64_t kind = rng.uniform_int(0, 9);
    const std::int32_t size =
        kind < 4 ? 1
                 : (kind < 9 ? static_cast<std::int32_t>(rng.uniform_int(2, 48))
                             : kCpus);
    const Time run_time = rng.uniform_int(1, 2) == 1
                              ? rng.uniform_int(30, 900)
                              : rng.uniform_int(900, 12000);
    const Time requested =
        rng.uniform_int(0, 3) == 0 ? run_time
                                   : run_time + rng.uniform_int(1, 3 * run_time);
    wl::Job job = testing::job(id, submit, run_time, requested, size);
    if (per_job_beta) {
      const std::int64_t draw = rng.uniform_int(0, 5);
      job.beta = draw == 0 ? 0.0 : (draw == 1 ? 1.0 : rng.uniform());
    }
    jobs.push_back(job);
  }
  return testing::workload(kCpus, std::move(jobs));
}

std::unique_ptr<SchedulingPolicy> easy(bool raise,
                                       std::unique_ptr<FrequencyAssigner> a) {
  if (raise) {
    return std::make_unique<DynamicRaiseEasy>(
        cluster::make_selector("FirstFit"), std::move(a),
        DynamicRaiseConfig{.queue_limit = 8, .one_step = false});
  }
  return std::make_unique<EasyBackfilling>(cluster::make_selector("FirstFit"),
                                           std::move(a));
}

sim::SimulationResult run(const wl::Workload& load, const Models& models,
                          bool raise, DvfsConfig config, bool forward_closed,
                          std::int64_t& closed) {
  const auto policy = easy(
      raise, std::make_unique<ClosureProbe>(config, forward_closed, closed));
  wl::VectorJobStream stream = testing::stream_of(load);
  return sim::Simulation(stream, *policy, models.power, models.time).run();
}

constexpr double kThresholds[] = {1.0, 1.5, 2.0, 3.0};

using Grid = std::tuple<double, std::optional<std::int64_t>>;

class BackfillClosureDifferentialTest : public ::testing::TestWithParam<Grid> {
 protected:
  Models models_;
};

TEST_P(BackfillClosureDifferentialTest, ClosingChangesNoJob) {
  const auto [threshold, wq] = GetParam();
  std::int64_t closed_with_flag = 0;
  for (const bool at_top : {true, false}) {
    for (const bool per_job_beta : {false, true}) {
      for (const bool raise : {false, true}) {
        for (const std::uint64_t seed : {11u, 12u, 13u}) {
          DvfsConfig config;
          config.bsld_threshold = threshold;
          config.wq_threshold = wq;
          config.backfill_requires_bsld_at_top = at_top;
          const wl::Workload load = deep_queue_trace(seed, per_job_beta);
          std::int64_t closed = 0;
          std::int64_t never = 0;
          const sim::SimulationResult hooked =
              run(load, models_, raise, config, true, closed);
          const sim::SimulationResult reference =
              run(load, models_, raise, config, false, never);
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " at_top " << at_top
                       << " per_job_beta " << per_job_beta << " raise "
                       << raise);
          ASSERT_EQ(hooked.jobs.size(), reference.jobs.size());
          for (std::size_t i = 0; i < hooked.jobs.size(); ++i) {
            const sim::JobOutcome& got = hooked.jobs[i];
            const sim::JobOutcome& want = reference.jobs[i];
            ASSERT_EQ(got.id, want.id);
            ASSERT_EQ(got.start, want.start) << "job " << got.id;
            ASSERT_EQ(got.gear, want.gear) << "job " << got.id;
            ASSERT_EQ(got.end, want.end) << "job " << got.id;
          }
          EXPECT_EQ(never, 0);
          // Without the flag the WQ-closed branch ignores BSLD: no closure.
          if (!at_top) {
            EXPECT_EQ(closed, 0);
          }
          closed_with_flag += closed;
        }
      }
    }
  }
  // The traces must exercise the hook, or the comparison proves nothing.
  EXPECT_GT(closed_with_flag, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdsAndQueueLimits, BackfillClosureDifferentialTest,
    ::testing::Combine(
        ::testing::ValuesIn(kThresholds),
        ::testing::Values(std::optional<std::int64_t>(0),
                          std::optional<std::int64_t>(4),
                          std::optional<std::int64_t>(16),
                          std::optional<std::int64_t>())));

class BackfillClosurePropertyTest : public ::testing::Test {
 protected:
  BackfillClosurePropertyTest() : context_(64, models_.time) {}

  Models models_;
  testing::FakeContext context_;
};

TEST_F(BackfillClosurePropertyTest, ClosedMeansNoGearAtAnyLaterTime) {
  util::Rng rng(0xc105edULL);
  const GearIndex gears = static_cast<GearIndex>(models_.gears.size());
  const std::uint32_t masks = 1u << gears;
  std::int64_t closures = 0;
  for (int trial = 0; trial < 400; ++trial) {
    DvfsConfig config;
    config.bsld_threshold =
        kThresholds[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    config.wq_threshold = rng.uniform_int(0, 3) == 0
                              ? std::nullopt
                              : std::optional<std::int64_t>(rng.uniform_int(0, 16));
    config.wq_counts_self = rng.uniform_int(0, 1) == 1;
    config.backfill_requires_bsld_at_top = rng.uniform_int(0, 3) != 0;
    const BsldThresholdAssigner assigner(config);

    const Time run_time = rng.uniform_int(1, 20000);
    wl::Job job = testing::job(trial + 1, rng.uniform_int(0, 5000), run_time,
                               run_time + rng.uniform_int(0, run_time),
                               static_cast<std::int32_t>(rng.uniform_int(1, 64)));
    if (rng.uniform_int(0, 1) == 1) job.beta = rng.uniform();
    context_.add_job(job);
    const Time now = job.submit + rng.uniform_int(0, 40000);
    context_.set_now(now);
    if (!assigner.backfill_closed(context_, job, now)) continue;
    ++closures;
    EXPECT_TRUE(config.backfill_requires_bsld_at_top);
    for (const Time later : {now, now + 1, now + 1'000'000}) {
      context_.set_now(later);
      for (std::uint32_t mask = 0; mask < masks; ++mask) {
        const auto feasible = [mask](GearIndex g) {
          return ((mask >> g) & 1u) != 0;
        };
        for (const std::size_t wq_size : {0u, 1u, 4u, 16u, 17u, 1000u}) {
          EXPECT_FALSE(
              assigner.backfill_gear(context_, job, feasible, wq_size))
              << "job " << job.id << " at " << later << " mask " << mask
              << " wq " << wq_size;
        }
      }
    }
  }
  EXPECT_GT(closures, 0);
}

TEST_F(BackfillClosurePropertyTest, TopFrequencyNeverCloses) {
  util::Rng rng(0x70bULL);
  const TopFrequency assigner;
  for (int trial = 0; trial < 200; ++trial) {
    const Time run_time = rng.uniform_int(1, 20000);
    const wl::Job job = testing::job(trial + 1, 0, run_time, run_time, 1);
    EXPECT_FALSE(
        assigner.backfill_closed(context_, job, rng.uniform_int(0, 1'000'000)));
  }
}

}  // namespace
}  // namespace bsld::core
