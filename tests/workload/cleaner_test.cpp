#include "workload/cleaner.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bsld::wl {
namespace {

/// Runs `jobs` through one JobCleaner; returns the kept jobs.
std::vector<Job> clean(const std::vector<Job>& jobs, JobCleaner& cleaner) {
  std::vector<Job> kept;
  for (const Job& job : jobs) {
    if (std::optional<Job> cleaned = cleaner.accept(job)) {
      kept.push_back(*cleaned);
    }
  }
  return kept;
}

TEST(CleanerTest, DropsInvalidRecords) {
  JobCleaner cleaner({});
  const std::vector<Job> kept = clean(
      {
          {1, 0, 100, 200, 4, 0},
          {2, 0, 100, 200, 0, 0},    // size 0
          {3, 0, -5, 200, 4, 0},     // negative runtime
          {4, -1, 100, 200, 4, 0},   // negative submit
      },
      cleaner);
  EXPECT_EQ(cleaner.report().kept, 1u);
  EXPECT_EQ(cleaner.report().dropped_invalid, 3u);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].id, 1);
}

TEST(CleanerTest, DropsZeroRuntime) {
  JobCleaner cleaner({});
  EXPECT_TRUE(clean({{1, 0, 0, 200, 4, 0}}, cleaner).empty());
  EXPECT_EQ(cleaner.report().kept, 0u);
  EXPECT_EQ(cleaner.report().dropped_invalid, 1u);
}

TEST(CleanerTest, ClampsOversizedJobs) {
  JobCleaner cleaner({.machine_cpus = 100});
  const std::vector<Job> kept = clean({{1, 0, 100, 200, 500, 0}}, cleaner);
  EXPECT_EQ(cleaner.report().clamped_size, 1u);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].size, 100);
}

TEST(CleanerTest, NoClampWhenMachineUnknown) {
  JobCleaner cleaner({.machine_cpus = 0});
  const std::vector<Job> kept = clean({{1, 0, 100, 200, 500, 0}}, cleaner);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].size, 500);
}

TEST(CleanerTest, RepairsEstimatesBelowRuntime) {
  JobCleaner cleaner({});
  const std::vector<Job> kept = clean({{1, 0, 300, 100, 4, 0}}, cleaner);
  EXPECT_EQ(cleaner.report().clamped_runtime, 1u);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].requested_time, 300);
}

TEST(CleanerTest, FillsMissingEstimates) {
  JobCleaner cleaner({});
  const std::vector<Job> kept = clean({{1, 0, 300, 0, 4, 0}}, cleaner);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].requested_time, 300);
}

}  // namespace
}  // namespace bsld::wl
