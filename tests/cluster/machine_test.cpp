#include "cluster/machine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

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
