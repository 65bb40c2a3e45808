#include "cluster/profile.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bsld::cluster {
namespace {

TEST(ProfileTest, FullCapacityInitially) {
  const AvailabilityProfile profile(8, 100);
  EXPECT_EQ(profile.capacity(), 8);
  EXPECT_EQ(profile.free_at(100), 8);
  EXPECT_EQ(profile.free_at(1000000), 8);
}

TEST(ProfileTest, ReserveCarvesInterval) {
  AvailabilityProfile profile(8, 0);
  profile.reserve(10, 20, 3);
  EXPECT_EQ(profile.free_at(9), 8);
  EXPECT_EQ(profile.free_at(10), 5);
  EXPECT_EQ(profile.free_at(19), 5);
  EXPECT_EQ(profile.free_at(20), 8);
}

TEST(ProfileTest, OverlappingReservationsStack) {
  AvailabilityProfile profile(8, 0);
  profile.reserve(0, 100, 4);
  profile.reserve(50, 150, 4);
  EXPECT_EQ(profile.free_at(0), 4);
  EXPECT_EQ(profile.free_at(50), 0);
  EXPECT_EQ(profile.free_at(100), 4);
  EXPECT_EQ(profile.free_at(150), 8);
}

TEST(ProfileTest, OvercommitRejected) {
  AvailabilityProfile profile(8, 0);
  profile.reserve(0, 100, 6);
  EXPECT_THROW(profile.reserve(50, 60, 3), Error);
  // The failed reservation must not corrupt the profile.
  EXPECT_EQ(profile.free_at(50), 2);
  profile.reserve(50, 60, 2);  // exactly fits
  EXPECT_EQ(profile.free_at(55), 0);
}

TEST(ProfileTest, OvercommitInsideIntervalDetected) {
  AvailabilityProfile profile(8, 0);
  profile.reserve(50, 60, 6);
  // Starts where 8 are free, but the middle dips to 2 < 4.
  EXPECT_THROW(profile.reserve(40, 70, 4), Error);
}

TEST(ProfileTest, EarliestSlotImmediate) {
  const AvailabilityProfile profile(8, 0);
  EXPECT_EQ(profile.earliest_slot(8, 100, 0), 0);
  EXPECT_EQ(profile.earliest_slot(1, 1, 42), 42);
}

TEST(ProfileTest, EarliestSlotAfterRelease) {
  AvailabilityProfile profile(8, 0);
  profile.reserve(0, 100, 6);
  EXPECT_EQ(profile.earliest_slot(2, 10, 0), 0);    // the 2 spare CPUs
  EXPECT_EQ(profile.earliest_slot(4, 10, 0), 100);  // must wait for release
}

TEST(ProfileTest, EarliestSlotSkipsTooShortHoles) {
  AvailabilityProfile profile(8, 0);
  // Free window of width 50 between two reservations, then free forever.
  profile.reserve(0, 100, 8);
  profile.reserve(150, 300, 8);
  EXPECT_EQ(profile.earliest_slot(1, 50, 0), 100);   // fits in the hole
  EXPECT_EQ(profile.earliest_slot(1, 51, 0), 300);   // must skip it
}

TEST(ProfileTest, EarliestSlotHonoursAfter) {
  AvailabilityProfile profile(8, 0);
  profile.reserve(100, 200, 8);
  EXPECT_EQ(profile.earliest_slot(4, 10, 50), 50);
  EXPECT_EQ(profile.earliest_slot(4, 10, 150), 200);
}

TEST(ProfileTest, StepsEnumerateBreakpoints) {
  AvailabilityProfile profile(4, 0);
  profile.reserve(10, 20, 1);
  // The breakpoints 0, 10 and 20 step the free capacity 4 -> 3 -> 4.
  EXPECT_EQ(profile.free_at(0), 4);
  EXPECT_EQ(profile.free_at(10), 3);
  EXPECT_EQ(profile.free_at(20), 4);
}

TEST(ProfileTest, InvalidInputsRejected) {
  EXPECT_THROW(AvailabilityProfile(0, 0), Error);
  AvailabilityProfile profile(4, 100);
  EXPECT_THROW(profile.reserve(50, 60, 1), Error);   // before origin
  EXPECT_THROW(profile.reserve(200, 200, 1), Error); // empty interval
  EXPECT_THROW(profile.reserve(200, 300, 0), Error); // zero size
  EXPECT_THROW((void)profile.free_at(50), Error);    // before origin
  EXPECT_THROW((void)profile.earliest_slot(5, 10, 100), Error);
  EXPECT_THROW((void)profile.earliest_slot(1, 0, 100), Error);
}

}  // namespace
}  // namespace bsld::cluster
