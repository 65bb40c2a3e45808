#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace bsld::sim {
namespace {

TEST(EngineTest, EmptyEngine) {
  Engine engine;
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.now(), 0);
  EXPECT_FALSE(engine.pop().has_value());
}

TEST(EngineTest, PopsInTimeOrder) {
  Engine engine;
  engine.schedule({30, EventKind::kJobSubmit, 0, 3});
  engine.schedule({10, EventKind::kJobSubmit, 0, 1});
  engine.schedule({20, EventKind::kJobSubmit, 0, 2});
  EXPECT_EQ(engine.pop()->job, 1);
  EXPECT_EQ(engine.now(), 10);
  EXPECT_EQ(engine.pop()->job, 2);
  EXPECT_EQ(engine.pop()->job, 3);
  EXPECT_EQ(engine.now(), 30);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, CompletionsBeforeSubmissionsAtSameInstant) {
  Engine engine;
  engine.schedule({100, EventKind::kJobSubmit, 0, 1});
  engine.schedule({100, EventKind::kJobEnd, 0, 2});
  EXPECT_EQ(engine.pop()->kind, EventKind::kJobEnd);
  EXPECT_EQ(engine.pop()->kind, EventKind::kJobSubmit);
}

TEST(EngineTest, FifoWithinSameTimeAndKind) {
  Engine engine;
  for (JobId id = 1; id <= 5; ++id) {
    engine.schedule({50, EventKind::kJobSubmit, 0, id});
  }
  for (JobId id = 1; id <= 5; ++id) {
    EXPECT_EQ(engine.pop()->job, id);
  }
}

TEST(EngineTest, SchedulingInThePastRejected) {
  Engine engine;
  engine.schedule({100, EventKind::kJobSubmit, 0, 1});
  (void)engine.pop();
  EXPECT_THROW(engine.schedule({99, EventKind::kJobSubmit, 0, 2}), Error);
  // Scheduling exactly "now" is allowed (job chains at the same instant).
  engine.schedule({100, EventKind::kJobEnd, 0, 3});
  EXPECT_EQ(engine.pop()->job, 3);
}

TEST(EngineTest, InterleavedScheduleAndPop) {
  Engine engine;
  engine.schedule({10, EventKind::kJobSubmit, 0, 1});
  EXPECT_EQ(engine.pop()->job, 1);
  engine.schedule({20, EventKind::kJobEnd, 0, 2});
  engine.schedule({15, EventKind::kJobSubmit, 0, 3});
  EXPECT_EQ(engine.pop()->job, 3);
  EXPECT_EQ(engine.pop()->job, 2);
}

TEST(EngineTest, ProcessedCounter) {
  Engine engine;
  engine.schedule({1, EventKind::kJobSubmit, 0, 1});
  engine.schedule({2, EventKind::kJobSubmit, 0, 2});
  EXPECT_EQ(engine.processed(), 0u);
  (void)engine.pop();
  (void)engine.pop();
  EXPECT_EQ(engine.processed(), 2u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EngineTest, PopsMatchANaiveReferenceUnderRandomLoad) {
  // Random interleavings of schedule and pop against an unsorted vector
  // whose minimum is found by a linear scan: same-time ties across all
  // three kinds, far-future times, and 0 to ~20k pending events. Each
  // seed fills the queue to its target, churns at the plateau, then
  // drains with occasional schedules mixed in.
  using Key = std::tuple<Time, int, std::uint64_t>;
  const auto key = [](const Event& event) {
    return Key(event.time, static_cast<int>(event.kind), event.sequence);
  };
  const std::vector<std::pair<std::uint64_t, std::size_t>> cases{
      {1, 64}, {2, 2000}, {3, 20000}};
  for (const auto& [seed, target] : cases) {
    util::Rng rng(seed);
    Engine engine;
    std::vector<Event> reference;
    std::uint64_t sequence = 0;
    JobId next_job = 0;

    const auto schedule = [&] {
      const double draw = rng.uniform();
      Time delay = 0;  // Same-time tie with now().
      if (draw < 0.3) {
        delay = rng.uniform_int(0, 5);
      } else if (draw < 0.55) {
        delay = rng.uniform_int(0, 100000);
      } else if (draw < 0.6) {
        delay = 1'000'000'000'000 + rng.uniform_int(0, 1000);
      }
      const Event event{engine.now() + delay,
                        static_cast<EventKind>(rng.uniform_int(0, 2)),
                        sequence++, next_job++};
      engine.schedule(event);
      reference.push_back(event);
    };
    const auto pop = [&] {
      const auto min = std::min_element(
          reference.begin(), reference.end(),
          [&](const Event& a, const Event& b) { return key(a) < key(b); });
      const Event expected = *min;
      *min = reference.back();
      reference.pop_back();
      const std::optional<Event> event = engine.pop();
      ASSERT_TRUE(event.has_value());
      ASSERT_EQ(key(*event), key(expected)) << "seed " << seed;
      ASSERT_EQ(event->job, expected.job) << "seed " << seed;
      ASSERT_EQ(engine.now(), expected.time);
    };
    const auto step = [&](double schedule_share) {
      if (reference.empty() || rng.bernoulli(schedule_share)) {
        schedule();
      } else {
        pop();
      }
      ASSERT_EQ(engine.pending(), reference.size());
    };

    const auto failed = [] { return ::testing::Test::HasFatalFailure(); };
    while (reference.size() < target && !failed()) step(0.85);
    for (int i = 0; i < 2000 && !failed(); ++i) step(0.5);
    while (!reference.empty() && !failed()) step(0.05);
    if (failed()) return;
    EXPECT_TRUE(engine.empty());
    EXPECT_FALSE(engine.pop().has_value());
    EXPECT_EQ(engine.processed(), sequence);
  }
}

TEST(EngineTest, FarFutureEventsSurviveRebuckets) {
  // A sparse horizon (events eons apart): a far-future event must neither
  // be lost nor reordered.
  Engine engine;
  engine.schedule({5, EventKind::kJobSubmit, 0, 1});
  engine.schedule({1'000'000'000'000, EventKind::kJobEnd, 0, 2});
  engine.schedule({3, EventKind::kJobSubmit, 0, 3});
  EXPECT_EQ(engine.pop()->job, 3);
  engine.schedule({7'000'000'000'000, EventKind::kJobEnd, 0, 4});
  EXPECT_EQ(engine.pop()->job, 1);
  EXPECT_EQ(engine.pop()->job, 2);
  EXPECT_EQ(engine.now(), 1'000'000'000'000);
  EXPECT_EQ(engine.pop()->job, 4);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, DenseTiesBeyondOneSegmentStayFifo) {
  // Many same-(time, kind) events pop in schedule order: the sequence
  // tie-break, not heap layout, decides.
  Engine engine;
  for (JobId id = 0; id < 200; ++id) {
    engine.schedule({42, EventKind::kJobSubmit, 0, id});
  }
  for (JobId id = 0; id < 200; ++id) {
    const auto event = engine.pop();
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->job, id);
  }
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, DeterministicUnderHeavyTies) {
  // Two engines fed identically must drain identically.
  Engine a;
  Engine b;
  for (int i = 0; i < 1000; ++i) {
    const Event event{i % 7, i % 2 == 0 ? EventKind::kJobEnd
                                        : EventKind::kJobSubmit,
                      0, i};
    a.schedule(event);
    b.schedule(event);
  }
  while (!a.empty()) {
    const auto ea = a.pop();
    const auto eb = b.pop();
    ASSERT_TRUE(ea && eb);
    EXPECT_EQ(ea->job, eb->job);
    EXPECT_EQ(ea->time, eb->time);
  }
  EXPECT_TRUE(b.empty());
}

}  // namespace
}  // namespace bsld::sim
