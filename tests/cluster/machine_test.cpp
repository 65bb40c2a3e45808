#include "cluster/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace bsld::cluster {
namespace {

TEST(MachineTest, StartsAllFree) {
  const Machine machine(4);
  EXPECT_EQ(machine.cpu_count(), 4);
  EXPECT_EQ(machine.free_now(), 4);
  EXPECT_TRUE(machine.by_end().empty());
  for (CpuId cpu = 0; cpu < 4; ++cpu) EXPECT_TRUE(machine.is_free(cpu));
  EXPECT_EQ(machine.earliest_start(4, 100), 100);
}

TEST(MachineTest, AssignAndRelease) {
  Machine machine(4);
  machine.assign(7, {2, 0}, 500);
  EXPECT_EQ(machine.free_now(), 2);
  EXPECT_FALSE(machine.is_free(0));
  EXPECT_FALSE(machine.is_free(2));
  EXPECT_TRUE(machine.is_free(1));
  std::vector<CpuId> held;
  machine.held_cpus(7, 2, held);
  EXPECT_EQ(held, (std::vector<CpuId>{0, 2}));  // ascending
  EXPECT_EQ(machine.earliest_start(3, 100), 500);
  machine.release(7, 2);
  EXPECT_EQ(machine.free_now(), 4);
  EXPECT_TRUE(machine.is_free(0));
  EXPECT_TRUE(machine.by_end().empty());
}

TEST(MachineTest, OversubscriptionRejected) {
  Machine machine(4);
  machine.assign(1, {0}, 100);
  EXPECT_THROW(machine.assign(2, {1, 0}, 200), Error);
  EXPECT_THROW(machine.assign(3, {2, 3, 2}, 200), Error);  // CPU listed twice
  EXPECT_THROW(machine.assign(1, {2}, 200), Error);        // already running
  // Failed assignments must not corrupt the state.
  EXPECT_EQ(machine.free_now(), 3);
  for (CpuId cpu = 1; cpu < 4; ++cpu) EXPECT_TRUE(machine.is_free(cpu));
  EXPECT_EQ(machine.by_end().size(), 1U);
}

// A rejected assign must leave the machine exactly as it was, even when the
// bad CPU comes after CPUs that were already claimed.
TEST(MachineTest, FailedAssignLeavesStateUntouched) {
  const std::vector<std::vector<CpuId>> rejected{
      {0, 1, 128},     // out of range after valid CPUs
      {0, 70, 0},      // repeated, not adjacent
      {0, 70, 5, 100}  // busy CPU in the middle (held by job 1)
  };
  for (const std::vector<CpuId>& cpus : rejected) {
    Machine machine(128);
    machine.assign(1, {5, 6}, 300);
    const std::vector<std::uint64_t> free = machine.free_words();
    EXPECT_THROW(machine.assign(2, cpus, 500), Error);
    EXPECT_EQ(machine.free_words(), free);
    EXPECT_EQ(machine.free_now(), 126);
    ASSERT_EQ(machine.by_end().size(), 1U);
    EXPECT_EQ(machine.by_end()[0].job, 1);
    EXPECT_EQ(machine.by_end()[0].cpus, 2);
    machine.assign(2, {0, 1, 70, 100}, 500);
    EXPECT_EQ(machine.free_now(), 122);
    std::vector<CpuId> held;
    machine.held_cpus(2, 0, held);
    EXPECT_EQ(held, (std::vector<CpuId>{0, 1, 70, 100}));
  }
  Machine small(8);
  EXPECT_THROW(small.assign(1, {0, 1, 8}, 100), Error);
  EXPECT_EQ(small.free_now(), 8);
  EXPECT_TRUE(small.is_free(0) && small.is_free(1));
  small.assign(2, {0, 1}, 100);
  EXPECT_EQ(small.free_now(), 6);
}

TEST(MachineTest, HeldCpusAscendAcrossWords) {
  Machine machine(200);
  machine.assign(1, {130, 2, 65, 1, 199, 64}, 100);  // Last-Fit-like order
  std::vector<CpuId> held;
  machine.held_cpus(1, 130, held);
  EXPECT_EQ(held, (std::vector<CpuId>{1, 2, 64, 65, 130, 199}));
  EXPECT_EQ(machine.free_now(), 194);
  machine.release(1, 130);
  EXPECT_EQ(machine.free_now(), 200);
  for (CpuId cpu = 0; cpu < 200; ++cpu) EXPECT_TRUE(machine.is_free(cpu));
}

TEST(MachineTest, ReleaseWrongJobRejected) {
  Machine machine(4);
  machine.assign(1, {0}, 100);
  EXPECT_THROW(machine.release(2, 0), Error);
  EXPECT_THROW(machine.release(1, 1), Error);  // cpu 1 is free
  EXPECT_THROW(machine.update_expected_end(2, 0, 50), Error);
  machine.assign(3, {1, 2}, 100);
  EXPECT_THROW(machine.release(3, 2), Error);  // not the job's first CPU
  std::vector<CpuId> held;
  EXPECT_THROW(machine.held_cpus(3, 2, held), Error);
  EXPECT_EQ(machine.free_now(), 1);
}

/// The message of the bsld::Error `call` throws, or "" when it throws none.
template <typename Call>
std::string error_of(Call call) {
  try {
    call();
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

// Every rejection keeps firing, with the machine untouched, after many
// assign / re-time / release cycles with tied expected ends: a job is
// found by its (expected end, job) position, so a stale end would lose it.
TEST(MachineTest, RejectionsHoldAfterManyAssignReleaseRetimeCycles) {
  constexpr std::int32_t kCpus = 130;
  Machine machine(kCpus);
  util::Rng rng(17);
  struct Held {
    CpuId first_cpu;
    std::int32_t cpus;
    Time expected_end;
  };
  std::map<JobId, Held> running;
  JobId next_id = 1;
  for (int cycle = 0; cycle < 800; ++cycle) {
    const std::int64_t action = rng.uniform_int(0, 2);
    if (action == 0 || running.empty()) {
      std::vector<CpuId> free;
      for (CpuId cpu = 0; cpu < kCpus; ++cpu) {
        if (machine.is_free(cpu)) free.push_back(cpu);
      }
      if (free.empty()) continue;
      std::vector<CpuId> cpus;
      const auto size = rng.uniform_int(1, std::min<std::int64_t>(
                                               9, static_cast<std::int64_t>(free.size())));
      for (std::int64_t i = 0; i < size; ++i) {
        const auto at = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(free.size()) - 1));
        cpus.push_back(free[at]);
        free.erase(free.begin() + static_cast<std::ptrdiff_t>(at));
      }
      const Time end = rng.uniform_int(100, 110);  // Many ties.
      machine.assign(next_id, cpus, end);
      running[next_id] = Held{cpus.front(), static_cast<std::int32_t>(size), end};
      ++next_id;
    } else {
      auto it = running.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<std::int64_t>(running.size()) - 1));
      if (action == 1) {
        it->second.expected_end = rng.uniform_int(100, 110);
        machine.update_expected_end(it->first, it->second.first_cpu,
                                    it->second.expected_end);
      } else {
        machine.release(it->first, it->second.first_cpu);
        running.erase(it);
      }
    }

    const std::vector<std::uint64_t> free = machine.free_words();
    const std::vector<Machine::Running> by_end = machine.by_end();
    for (const auto& [id, held] : running) {
      const CpuId other = (held.first_cpu + 1) % kCpus;
      EXPECT_EQ(error_of([&] { machine.assign(id, {other}, 50); })
                    .rfind("Machine: job is already running", 0),
                0u)
          << "cycle " << cycle << " job " << id;
      EXPECT_NE(error_of([&] { machine.release(id, other); }), "");
      EXPECT_NE(error_of([&] { machine.update_expected_end(id, other, 1); }),
                "");
      std::vector<CpuId> cpus;
      EXPECT_NE(error_of([&] { machine.held_cpus(id, other, cpus); }), "");
      machine.held_cpus(id, held.first_cpu, cpus);
      EXPECT_EQ(static_cast<std::int32_t>(cpus.size()), held.cpus);
    }
    for (const JobId gone : {JobId{0}, next_id, next_id + 1}) {
      EXPECT_NE(error_of([&] { machine.release(gone, 0); }), "");
      EXPECT_NE(error_of([&] { machine.update_expected_end(gone, 0, 1); }),
                "");
    }
    ASSERT_EQ(machine.free_words(), free) << "cycle " << cycle;
    ASSERT_EQ(machine.by_end().size(), running.size());
    for (std::size_t i = 0; i < by_end.size(); ++i) {
      const Machine::Running& entry = machine.by_end()[i];
      ASSERT_EQ(entry.job, by_end[i].job);
      ASSERT_EQ(entry.expected_end, running.at(entry.job).expected_end);
      if (i > 0) {
        const Machine::Running& before = machine.by_end()[i - 1];
        ASSERT_TRUE(before.expected_end < entry.expected_end ||
                    (before.expected_end == entry.expected_end &&
                     before.job < entry.job));
      }
    }
  }
  while (!running.empty()) {
    machine.release(running.begin()->first, running.begin()->second.first_cpu);
    running.erase(running.begin());
  }
  EXPECT_EQ(machine.free_now(), kCpus);
}

TEST(MachineTest, AvailTimeClampsOverrunningJobs) {
  Machine machine(2);
  machine.assign(1, {0}, 50);  // expected end in the past from now=100
  // The job is still running, so the CPU must not look free "now".
  EXPECT_EQ(machine.earliest_start(2, 100), 101);
}

TEST(MachineTest, EarliestStartImmediateWhenFree) {
  Machine machine(4);
  machine.assign(1, {0}, 1000);
  EXPECT_EQ(machine.earliest_start(3, 10), 10);
}

TEST(MachineTest, EarliestStartIsKthSmallestAvail) {
  Machine machine(4);
  machine.assign(1, {0}, 300);
  machine.assign(2, {1}, 500);
  machine.assign(3, {2}, 700);
  // 1 CPU free now; need 3 => wait until the 2nd busy CPU frees at 500.
  EXPECT_EQ(machine.earliest_start(3, 10), 500);
  EXPECT_EQ(machine.earliest_start(1, 10), 10);
  EXPECT_EQ(machine.earliest_start(4, 10), 700);
}

TEST(MachineTest, UpdateExpectedEndReordersEndIndex) {
  Machine machine(4);
  machine.assign(1, {0}, 300);
  machine.assign(2, {1, 2}, 500);
  EXPECT_EQ(machine.earliest_start(2, 10), 300);
  machine.update_expected_end(2, 1, 200);  // raised: now ends first
  EXPECT_EQ(machine.earliest_start(2, 10), 200);
  EXPECT_EQ(machine.earliest_start(3, 10), 200);
  EXPECT_EQ(machine.earliest_start(4, 10), 300);
  ASSERT_EQ(machine.by_end().size(), 2U);
  EXPECT_EQ(machine.by_end()[0].job, 2);
  EXPECT_EQ(machine.by_end()[0].cpus_before, 0);
  EXPECT_EQ(machine.by_end()[1].cpus_before, 2);
}

TEST(MachineTest, AvailableWordsAddJobsEndingByStart) {
  Machine machine(70);
  machine.assign(1, {65, 3}, 300);
  machine.assign(2, {4}, 500);
  // Nothing ends by now: the free bitset itself.
  EXPECT_EQ(&machine.available_words(10, 10), &machine.free_words());
  const std::vector<std::uint64_t>& by_300 = machine.available_words(300, 10);
  EXPECT_EQ(by_300[0], ~std::uint64_t{0} & ~(std::uint64_t{1} << 4));
  EXPECT_EQ(by_300[1], (std::uint64_t{1} << 6) - 1);  // CPUs 64..69
}

TEST(MachineTest, InvalidArgumentsRejected) {
  Machine machine(4);
  EXPECT_THROW(Machine(0), Error);
  EXPECT_THROW((void)machine.earliest_start(0, 0), Error);
  EXPECT_THROW((void)machine.earliest_start(5, 0), Error);
  EXPECT_THROW((void)machine.is_free(4), Error);
  EXPECT_THROW(machine.assign(kNoJob, {0}, 10), Error);
  EXPECT_THROW(machine.assign(1, {}, 10), Error);
  EXPECT_THROW(machine.assign(1, {9}, 10), Error);
}

}  // namespace
}  // namespace bsld::cluster
