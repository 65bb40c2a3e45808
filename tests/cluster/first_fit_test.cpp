#include "cluster/first_fit.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bsld::cluster {
namespace {

Reservation make_reservation(JobId job, Time start, std::vector<CpuId> cpus,
                             std::int32_t machine_cpus) {
  Reservation reservation;
  reservation.job = job;
  reservation.start = start;
  reservation.cpus = cpus;
  reservation.mark(machine_cpus);
  return reservation;
}

TEST(FirstFitTest, SelectsLowestIndices) {
  Machine machine(6);
  machine.assign(1, {1, 2}, 1000);
  const FirstFit selector;
  std::vector<CpuId> cpus;
  selector.select_at(machine, 3, 0, 0, cpus);
  EXPECT_EQ(cpus, (std::vector<CpuId>{0, 3, 4}));
}

TEST(FirstFitTest, SelectAtFutureIncludesFreeingCpus) {
  Machine machine(4);
  machine.assign(1, {0}, 100);
  machine.assign(2, {1}, 500);
  const FirstFit selector;
  // At t=100 cpu 0 frees; {0, 2, 3} are the lowest available by then.
  std::vector<CpuId> cpus;
  selector.select_at(machine, 3, 100, 0, cpus);
  EXPECT_EQ(cpus, (std::vector<CpuId>{0, 2, 3}));
}

TEST(FirstFitTest, SelectAtThrowsWhenInsufficient) {
  Machine machine(2);
  machine.assign(1, {0}, 1000);
  const FirstFit selector;
  std::vector<CpuId> cpus;
  EXPECT_THROW(selector.select_at(machine, 2, 10, 0, cpus), Error);
}

TEST(FirstFitTest, BackfillWithoutReservationUsesAnyFree) {
  Machine machine(4);
  machine.assign(1, {0}, 1000);
  const FirstFit selector;
  std::vector<CpuId> cpus;
  ASSERT_TRUE(selector.select_backfill(machine, 2, 99999, nullptr, cpus));
  EXPECT_EQ(cpus, (std::vector<CpuId>{1, 2}));
}

TEST(FirstFitTest, BackfillFinishingBeforeShadowMayUseReservedCpus) {
  Machine machine(4);
  const Reservation reservation = make_reservation(9, 500, {0, 1}, 4);
  const FirstFit selector;
  // Ends at 400 <= 500: reserved CPUs are fair game; lowest indices win.
  std::vector<CpuId> cpus;
  ASSERT_TRUE(selector.select_backfill(machine, 2, 400, &reservation, cpus));
  EXPECT_EQ(cpus, (std::vector<CpuId>{0, 1}));
}

TEST(FirstFitTest, BackfillCrossingShadowAvoidsReservedCpus) {
  Machine machine(4);
  const Reservation reservation = make_reservation(9, 500, {0, 1}, 4);
  const FirstFit selector;
  // Ends at 600 > 500: only CPUs outside the reservation qualify.
  std::vector<CpuId> cpus;
  ASSERT_TRUE(selector.select_backfill(machine, 2, 600, &reservation, cpus));
  EXPECT_EQ(cpus, (std::vector<CpuId>{2, 3}));
}

TEST(FirstFitTest, BackfillCrossingShadowFailsWhenOnlyReservedLeft) {
  Machine machine(4);
  machine.assign(1, {2, 3}, 2000);
  const Reservation reservation = make_reservation(9, 500, {0, 1}, 4);
  const FirstFit selector;
  std::vector<CpuId> cpus;
  EXPECT_FALSE(selector.select_backfill(machine, 2, 600, &reservation, cpus));
  // ...but fits if it ends before the shadow.
  EXPECT_TRUE(selector.select_backfill(machine, 2, 500, &reservation, cpus));
}

TEST(FirstFitTest, BackfillSkipsBusyCpus) {
  Machine machine(4);
  machine.assign(1, {0}, 1000);
  const FirstFit selector;
  std::vector<CpuId> cpus;
  ASSERT_TRUE(selector.select_backfill(machine, 3, 100, nullptr, cpus));
  EXPECT_EQ(cpus, (std::vector<CpuId>{1, 2, 3}));
  EXPECT_FALSE(selector.select_backfill(machine, 4, 100, nullptr, cpus));
}

TEST(LastFitTest, SelectsHighestIndices) {
  Machine machine(6);
  const LastFit selector;
  std::vector<CpuId> cpus;
  selector.select_at(machine, 2, 0, 0, cpus);
  EXPECT_EQ(cpus, (std::vector<CpuId>{5, 4}));
  ASSERT_TRUE(selector.select_backfill(machine, 2, 10, nullptr, cpus));
  EXPECT_EQ(cpus, (std::vector<CpuId>{5, 4}));
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
  reservation.clear();
  EXPECT_FALSE(reservation.active());
  EXPECT_TRUE(reservation.cpus.empty());
  EXPECT_EQ(reservation.mask, (std::vector<std::uint64_t>{0, 0}));
  reservation.cpus = {5};
  reservation.mark(80);
  EXPECT_TRUE(reservation.contains(5));
  EXPECT_FALSE(reservation.contains(2));
}

}  // namespace
}  // namespace bsld::cluster
