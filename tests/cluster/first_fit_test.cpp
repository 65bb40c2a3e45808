#include "cluster/first_fit.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bsld::cluster {
namespace {

Reservation make_reservation(JobId job, Time start,
                             const std::vector<CpuId>& cpus,
                             std::int32_t machine_cpus) {
  Reservation reservation;
  reservation.job = job;
  reservation.start = start;
  reservation.mask.assign(static_cast<std::size_t>(machine_cpus + 63) / 64, 0);
  for (const CpuId cpu : cpus) {
    reservation.mask[static_cast<std::size_t>(cpu) / 64] |= std::uint64_t{1}
                                                            << (cpu % 64);
  }
  return reservation;
}

/// The CPUs set in `mask`, ascending.
std::vector<CpuId> set_bits(const std::vector<std::uint64_t>& mask) {
  std::vector<CpuId> cpus;
  for (CpuId cpu = 0; cpu < static_cast<CpuId>(mask.size()) * 64; ++cpu) {
    if ((mask[static_cast<std::size_t>(cpu) / 64] >> (cpu % 64)) & 1) {
      cpus.push_back(cpu);
    }
  }
  return cpus;
}

TEST(FirstFitTest, SelectsLowestIndices) {
  Machine machine(6);
  machine.assign(1, {1, 2}, 1000);
  const FirstFit selector;
  std::vector<CpuId> cpus;
  ASSERT_TRUE(selector.select_now(machine, 3, 0, nullptr, cpus));
  EXPECT_EQ(cpus, (std::vector<CpuId>{0, 3, 4}));
}

TEST(FirstFitTest, SelectAtFutureIncludesFreeingCpus) {
  Machine machine(4);
  machine.assign(1, {0}, 100);
  machine.assign(2, {1}, 500);
  const FirstFit selector;
  // At t=100 cpu 0 frees; {0, 2, 3} are the lowest available by then.
  std::vector<std::uint64_t> mask{~std::uint64_t{0}};  // stale bits: rewritten
  selector.reserve(machine, 3, 100, 0, mask);
  EXPECT_EQ(set_bits(mask), (std::vector<CpuId>{0, 2, 3}));
}

TEST(FirstFitTest, SelectAtThrowsWhenInsufficient) {
  Machine machine(2);
  machine.assign(1, {0}, 1000);
  const FirstFit selector;
  std::vector<std::uint64_t> mask;
  EXPECT_THROW(selector.reserve(machine, 2, 10, 0, mask), Error);
  std::vector<CpuId> cpus;
  EXPECT_FALSE(selector.select_now(machine, 2, 10, nullptr, cpus));
}

TEST(FirstFitTest, SizeOutsideMachineRejected) {
  const Machine machine(4);
  const FirstFit selector;
  std::vector<CpuId> cpus;
  std::vector<std::uint64_t> mask;
  for (const std::int32_t size : {0, -1, 5}) {
    EXPECT_THROW((void)selector.select_now(machine, size, 0, nullptr, cpus),
                 Error);
    EXPECT_THROW(selector.reserve(machine, size, 0, 0, mask), Error);
  }
}

TEST(FirstFitTest, ReserveFillsWholeWordsThenThePartialOne) {
  Machine machine(200);
  machine.assign(1, {3, 130}, 1000);
  std::vector<std::uint64_t> mask;
  // First Fit: word 0 whole but CPU 3, then the 7 lowest bits of word 1.
  FirstFit{}.reserve(machine, 70, 0, 0, mask);
  EXPECT_EQ(mask, (std::vector<std::uint64_t>{~std::uint64_t{0} & ~8ULL,
                                              0x7FULL, 0, 0}));
  // Last Fit: CPUs 192..199 and 135..191 (CPU 130 is busy), highest first.
  LastFit{}.reserve(machine, 65, 0, 0, mask);
  EXPECT_EQ(mask, (std::vector<std::uint64_t>{0, 0, ~std::uint64_t{0} << 7,
                                              0xFFULL}));
}

TEST(FirstFitTest, BackfillWithoutReservationUsesAnyFree) {
  Machine machine(4);
  machine.assign(1, {0}, 1000);
  const FirstFit selector;
  std::vector<CpuId> cpus;
  ASSERT_TRUE(selector.select_now(machine, 2, 99999, nullptr, cpus));
  EXPECT_EQ(cpus, (std::vector<CpuId>{1, 2}));
}

TEST(FirstFitTest, BackfillFinishingBeforeShadowMayUseReservedCpus) {
  Machine machine(4);
  const Reservation reservation = make_reservation(9, 500, {0, 1}, 4);
  const FirstFit selector;
  // Ends at 400 <= 500: reserved CPUs are fair game; lowest indices win.
  std::vector<CpuId> cpus;
  ASSERT_TRUE(selector.select_now(machine, 2, 400, &reservation, cpus));
  EXPECT_EQ(cpus, (std::vector<CpuId>{0, 1}));
}

TEST(FirstFitTest, BackfillCrossingShadowAvoidsReservedCpus) {
  Machine machine(4);
  const Reservation reservation = make_reservation(9, 500, {0, 1}, 4);
  const FirstFit selector;
  // Ends at 600 > 500: only CPUs outside the reservation qualify.
  std::vector<CpuId> cpus;
  ASSERT_TRUE(selector.select_now(machine, 2, 600, &reservation, cpus));
  EXPECT_EQ(cpus, (std::vector<CpuId>{2, 3}));
}

TEST(FirstFitTest, BackfillCrossingShadowFailsWhenOnlyReservedLeft) {
  Machine machine(4);
  machine.assign(1, {2, 3}, 2000);
  const Reservation reservation = make_reservation(9, 500, {0, 1}, 4);
  const FirstFit selector;
  std::vector<CpuId> cpus;
  EXPECT_FALSE(selector.select_now(machine, 2, 600, &reservation, cpus));
  // ...but fits if it ends before the shadow.
  EXPECT_TRUE(selector.select_now(machine, 2, 500, &reservation, cpus));
}

TEST(FirstFitTest, BackfillSkipsBusyCpus) {
  Machine machine(4);
  machine.assign(1, {0}, 1000);
  const FirstFit selector;
  std::vector<CpuId> cpus;
  ASSERT_TRUE(selector.select_now(machine, 3, 100, nullptr, cpus));
  EXPECT_EQ(cpus, (std::vector<CpuId>{1, 2, 3}));
  EXPECT_FALSE(selector.select_now(machine, 4, 100, nullptr, cpus));
}

TEST(LastFitTest, SelectsHighestIndices) {
  Machine machine(6);
  const LastFit selector;
  std::vector<CpuId> cpus;
  ASSERT_TRUE(selector.select_now(machine, 2, 0, nullptr, cpus));
  EXPECT_EQ(cpus, (std::vector<CpuId>{5, 4}));
  std::vector<std::uint64_t> mask;
  selector.reserve(machine, 2, 10, 0, mask);
  EXPECT_EQ(set_bits(mask), (std::vector<CpuId>{4, 5}));
}

TEST(SelectorFactoryTest, KnownAndUnknownNames) {
  EXPECT_EQ(make_selector("FirstFit")->name(), "FirstFit");
  EXPECT_EQ(make_selector("LastFit")->name(), "LastFit");
  EXPECT_THROW((void)make_selector("BestFit"), Error);
}

TEST(ReservationTest, ContainsUsesMask) {
  const Reservation reservation = make_reservation(1, 10, {2}, 4);
  EXPECT_TRUE(reservation.contains(2));
  EXPECT_FALSE(reservation.contains(0));
  EXPECT_FALSE(reservation.contains(99));  // out of mask: false, not UB
  EXPECT_TRUE(reservation.active());
  EXPECT_FALSE(Reservation{}.active());
}

TEST(ReservationTest, ClearKeepsStorageAndDropsBits) {
  Reservation reservation = make_reservation(1, 10, {2, 70}, 80);
  const std::uint64_t* storage = reservation.mask.data();
  reservation.clear();
  EXPECT_FALSE(reservation.active());
  EXPECT_FALSE(reservation.contains(2));  // a cleared reservation holds none
  EXPECT_FALSE(reservation.contains(70));
  reservation.job = 1;
  reservation.start = 20;
  Machine machine(80);
  machine.assign(2, {0}, 1000);
  FirstFit{}.reserve(machine, 1, 20, 10, reservation.mask);
  EXPECT_EQ(reservation.mask.data(), storage);
  EXPECT_TRUE(reservation.contains(1));
  EXPECT_FALSE(reservation.contains(2));
  EXPECT_FALSE(reservation.contains(70));
}

}  // namespace
}  // namespace bsld::cluster
