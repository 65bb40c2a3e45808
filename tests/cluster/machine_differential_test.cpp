// Differential test of the incremental cluster::Machine and the bitset
// First/Last Fit selectors against testing::NaiveMachine, a per-CPU scan
// of the textbook definitions. Seeded random assign / release / re-time
// sequences cover overrunning jobs (expected end below now + 1), equal
// expected ends, size-1 and full-machine jobs and mid-run re-timing; after
// every step each query must match the oracle exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/first_fit.hpp"
#include "testing/naive_machine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bsld::cluster {
namespace {

using testing::NaiveMachine;

constexpr JobId kHeadJob = 1'000'000'000;  ///< Never assigned by the test.

class MachineDifferentialTest : public ::testing::TestWithParam<std::int32_t> {
 protected:
  MachineDifferentialTest()
      : cpus_(GetParam()),
        rng_(0x5eedULL + static_cast<std::uint64_t>(GetParam())),
        machine_(cpus_),
        oracle_(cpus_) {}

  /// An expected end relative to now: overrunning, on a coarse grid that
  /// makes ties common, or equal to a running job's.
  Time random_end() {
    switch (rng_.uniform_int(0, 3)) {
      case 0:
        return now_ - rng_.uniform_int(0, 100);
      case 1: {
        const std::vector<JobId> running = oracle_.running();
        if (!running.empty()) {
          const JobId other = running[static_cast<std::size_t>(
              rng_.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1))];
          return oracle_.end_of(other);
        }
        return now_ + 1;
      }
      default:
        return now_ + 10 * rng_.uniform_int(0, 30);
    }
  }

  void assign(std::int32_t size) {
    std::vector<CpuId> free;
    for (CpuId cpu = 0; cpu < cpus_; ++cpu) {
      if (oracle_.is_free(cpu)) free.push_back(cpu);
    }
    // Shuffled so the CPU chain order differs from index order.
    std::shuffle(free.begin(), free.end(), rng_);
    free.resize(static_cast<std::size_t>(size));
    const Time end = random_end();
    const JobId job = next_job_++;
    machine_.assign(job, free, end);
    oracle_.assign(job, free, end);
  }

  JobId random_running() {
    const std::vector<JobId> running = oracle_.running();
    return running[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1))];
  }

  void release(JobId job) {
    machine_.release(job, oracle_.cpus_of(job).front());
    oracle_.release(job);
  }

  /// One random mutation.
  void step() {
    const std::int32_t free = oracle_.free_now();
    const bool any_running = free < cpus_;
    switch (rng_.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3:
        if (free > 0) {
          const std::int64_t roll = rng_.uniform_int(0, 3);
          const std::int32_t cap = std::max(1, std::min(free, cpus_ / 8));
          assign(roll == 0   ? 1
                 : roll == 1 ? free
                             : static_cast<std::int32_t>(rng_.uniform_int(1, cap)));
          return;
        }
        break;
      case 4:
      case 5:
      case 6:
        if (any_running) {
          release(random_running());
          return;
        }
        break;
      case 7:
      case 8:
        if (any_running) {
          const JobId job = random_running();
          const Time end = random_end();
          machine_.update_expected_end(job, oracle_.cpus_of(job).front(), end);
          oracle_.update_expected_end(job, end);
          return;
        }
        break;
      default:
        break;
    }
    now_ += rng_.uniform_int(0, 200);
  }

  void expect_select_at(const ResourceSelector& selector, bool ascending,
                        std::int32_t size, Time start) {
    const auto want = oracle_.select_at(size, start, now_, ascending);
    if (want.has_value()) {
      selector.select_at(machine_, size, start, now_, got_);
      EXPECT_EQ(got_, *want) << selector.name() << " size " << size
                             << " start " << start;
    } else {
      EXPECT_THROW(selector.select_at(machine_, size, start, now_, got_),
                   Error);
    }
  }

  void expect_backfill(const ResourceSelector& selector, bool ascending,
                       std::int32_t size, Time end,
                       const Reservation* reservation) {
    const auto want =
        oracle_.select_backfill(size, end, reservation, ascending);
    const bool found =
        selector.select_backfill(machine_, size, end, reservation, got_);
    ASSERT_EQ(found, want.has_value()) << selector.name() << " size " << size;
    if (found) {
      EXPECT_EQ(got_, *want) << selector.name() << " size " << size;
    }
  }

  /// Every query against the oracle.
  void check() {
    ASSERT_EQ(machine_.free_now(), oracle_.free_now());
    for (CpuId cpu = 0; cpu < cpus_; ++cpu) {
      ASSERT_EQ(machine_.is_free(cpu), oracle_.is_free(cpu)) << "cpu " << cpu;
    }
    std::int32_t held = 0;
    for (const Machine::Running& entry : machine_.by_end()) {
      const std::vector<CpuId>& cpus = oracle_.cpus_of(entry.job);
      EXPECT_EQ(entry.first_cpu, cpus.front());
      EXPECT_EQ(entry.cpus, static_cast<std::int32_t>(cpus.size()));
      got_.clear();
      machine_.held_cpus(entry.job, entry.first_cpu, got_);
      EXPECT_EQ(got_, cpus);
      held += entry.cpus;
    }
    EXPECT_EQ(held, cpus_ - machine_.free_now());

    const std::int32_t free = oracle_.free_now();
    std::vector<std::int32_t> sizes{
        1, cpus_, static_cast<std::int32_t>(rng_.uniform_int(1, cpus_))};
    if (free > 0) sizes.push_back(free);
    if (free < cpus_) sizes.push_back(free + 1);
    for (const std::int32_t size : sizes) {
      const Time start = machine_.earliest_start(size, now_);
      ASSERT_EQ(start, oracle_.earliest_start(size, now_)) << "size " << size;
      EXPECT_GE(oracle_.available_by(start, now_), size);
      const Time later = now_ + rng_.uniform_int(0, 400);
      expect_select_at(first_fit_, true, size, start);
      expect_select_at(last_fit_, false, size, start);
      expect_select_at(first_fit_, true, size, later);
      expect_select_at(last_fit_, false, size, later);
    }

    // An EASY-style reservation for a head of random size, reused across
    // steps so a stale mask bit would show up as a mismatch.
    reservation_.clear();
    const auto head = static_cast<std::int32_t>(rng_.uniform_int(1, cpus_));
    const Time shadow = machine_.earliest_start(head, now_);
    if (shadow > now_) {
      reservation_.job = kHeadJob;
      reservation_.start = shadow;
      first_fit_.select_at(machine_, head, shadow, now_, reservation_.cpus);
      reservation_.mark(cpus_);
    }
    const std::int32_t backfill =
        free > 0 ? static_cast<std::int32_t>(rng_.uniform_int(1, free)) : 1;
    for (const std::int32_t size : {1, backfill, free + 1}) {
      if (size > cpus_) continue;
      for (const Time end : {shadow - 1, shadow, shadow + 1}) {
        expect_backfill(first_fit_, true, size, end, &reservation_);
        expect_backfill(last_fit_, false, size, end, &reservation_);
      }
      expect_backfill(first_fit_, true, size, shadow + 1, nullptr);
      expect_backfill(last_fit_, false, size, shadow + 1, nullptr);
    }
  }

  const std::int32_t cpus_;
  util::Rng rng_;
  Machine machine_;
  NaiveMachine oracle_;
  const FirstFit first_fit_;
  const LastFit last_fit_;
  Reservation reservation_;
  std::vector<CpuId> got_;
  Time now_ = 1000;
  JobId next_job_ = 1;
};

TEST_P(MachineDifferentialTest, RandomSequencesMatchNaiveScan) {
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 100; ++i) {
      step();
      ASSERT_NO_FATAL_FAILURE(check()) << "round " << round << " step " << i;
    }
    // Drain the machine, then run one full-machine job through a re-time
    // and its release.
    while (oracle_.free_now() < cpus_) {
      release(oracle_.running().front());
      ASSERT_NO_FATAL_FAILURE(check()) << "round " << round << " drain";
    }
    assign(cpus_);
    ASSERT_NO_FATAL_FAILURE(check()) << "round " << round << " full";
    const JobId full = oracle_.running().front();
    const Time end = random_end();
    machine_.update_expected_end(full, oracle_.cpus_of(full).front(), end);
    oracle_.update_expected_end(full, end);
    ASSERT_NO_FATAL_FAILURE(check()) << "round " << round << " full re-time";
    release(full);
  }
}

// The oracle itself, on hand-computed cases.
TEST(NaiveMachineTest, AvailableByCounts) {
  NaiveMachine machine(4);
  machine.assign(1, {0}, 300);
  machine.assign(2, {1}, 500);
  EXPECT_EQ(machine.available_by(10, 10), 2);
  EXPECT_EQ(machine.available_by(300, 10), 3);
  EXPECT_EQ(machine.available_by(499, 10), 3);
  EXPECT_EQ(machine.available_by(500, 10), 4);
  EXPECT_EQ(machine.earliest_start(3, 10), 300);
  EXPECT_EQ(machine.earliest_start(4, 600), 601);  // overrun clamps
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, MachineDifferentialTest,
                         ::testing::Values(1, 63, 64, 65, 128, 430, 9216));

}  // namespace
}  // namespace bsld::cluster
