/// \file stream_test.cpp
/// \brief Unit tests of the pull-based workload pipeline: open_stream /
/// materialize parity with load_source, SWF slicing through the streaming
/// parser, and SortingJobStream's bounded re-order window.
#include "workload/stream.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "testing/helpers.hpp"
#include "util/error.hpp"
#include "workload/archives.hpp"
#include "workload/source.hpp"
#include "workload/swf.hpp"

namespace bsld::wl {
namespace {

using testing::job;
using testing::workload;

/// Writes a workload as SWF to a unique temp path; removed on destruction.
class TempSwf {
 public:
  explicit TempSwf(const Workload& load)
      : path_(::testing::TempDir() + "stream_test_" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
              ".swf") {
    save_swf_file(path_, load);
  }
  ~TempSwf() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(JobStreamTest, ArchiveStreamMaterializesToLoadSourceBytes) {
  const WorkloadSource source =
      WorkloadSource::from_archive(Archive::kCTC, 500);
  const Workload eager = load_source(source);

  const std::unique_ptr<JobStream> stream = open_stream(source);
  EXPECT_EQ(stream->name(), eager.name);
  EXPECT_EQ(stream->cpus(), eager.cpus);
  EXPECT_EQ(stream->size_hint(), 500);

  const Workload lazy = materialize(*open_stream(source));
  EXPECT_EQ(lazy.name, eager.name);
  EXPECT_EQ(lazy.cpus, eager.cpus);
  EXPECT_EQ(lazy.jobs, eager.jobs);  // identical bytes, job for job.
}

TEST(JobStreamTest, StreamIsSingleUseAndStaysExhausted) {
  const WorkloadSource source =
      WorkloadSource::from_archive(Archive::kSDSC, 50);
  const std::unique_ptr<JobStream> stream = open_stream(source);
  std::int64_t pulled = 0;
  while (stream->next()) ++pulled;
  EXPECT_EQ(pulled, 50);
  EXPECT_FALSE(stream->next().has_value());  // exhausted stays exhausted.
}

TEST(JobStreamTest, StreamEmitsInSubmitIdOrder) {
  const WorkloadSource source =
      WorkloadSource::from_archive(Archive::kSDSCBlue, 400);
  const std::unique_ptr<JobStream> stream = open_stream(source);
  std::optional<Job> previous;
  while (std::optional<Job> next = stream->next()) {
    if (previous) {
      EXPECT_TRUE(previous->submit < next->submit ||
                  (previous->submit == next->submit && previous->id < next->id));
    }
    previous = std::move(next);
  }
}

TEST(JobStreamTest, SwfStreamSlicesExactlyLikeLoadSource) {
  // Slicing an SWF trace through the streaming counting pre-pass must
  // reproduce the materialized parse -> sort -> clean -> slice pipeline.
  const TempSwf file(make_archive_workload(Archive::kSDSC, 300));
  const WorkloadSource sliced =
      WorkloadSource::from_swf(file.path(), /*jobs=*/120);
  const Workload eager = load_source(sliced);
  const Workload lazy = materialize(*open_stream(sliced));
  ASSERT_EQ(eager.jobs.size(), 120u);
  EXPECT_EQ(lazy.cpus, eager.cpus);
  EXPECT_EQ(lazy.jobs, eager.jobs);

  // And the whole-file form (jobs = 0) as well.
  const WorkloadSource whole = WorkloadSource::from_swf(file.path());
  EXPECT_EQ(materialize(*open_stream(whole)).jobs, load_source(whole).jobs);
}

TEST(JobStreamTest, VectorStreamReplaysTheWorkload) {
  const Workload load = workload(
      8, {job(1, 0, 50, 60, 2), job(2, 5, 40, 40, 4), job(3, 9, 10, 20, 1)});

  VectorJobStream owned(load);  // copy moved in.
  EXPECT_EQ(owned.size_hint(), 3);
  for (const Job& expected : load.jobs) {
    const std::optional<Job> from_owned = owned.next();
    ASSERT_TRUE(from_owned.has_value());
    EXPECT_EQ(*from_owned, expected);
  }
  EXPECT_FALSE(owned.next().has_value());
}

TEST(JobStreamTest, SortBySubmitIsStableOnSameTimeJobs) {
  // Submit alone is the key: same-time jobs keep their trace order even
  // when their ids run backwards.
  Workload load = workload(
      8, {job(4, 10, 1, 1, 1), job(3, 0, 1, 1, 1), job(9, 10, 1, 1, 1),
          job(1, 10, 1, 1, 1), job(7, 0, 1, 1, 1)});
  sort_by_submit(load);
  std::vector<JobId> ids;
  for (const Job& sorted : load.jobs) ids.push_back(sorted.id);
  EXPECT_EQ(ids, (std::vector<JobId>{3, 7, 4, 9, 1}));

  // An already-sorted trace is left exactly as it was.
  const Workload before = load;
  sort_by_submit(load);
  EXPECT_EQ(load.jobs, before.jobs);
}

TEST(SortingJobStreamTest, ReordersWithinTheWindow) {
  // Jobs displaced by one position; a window of 2 restores strict
  // (submit, id) order without materializing the trace.
  const Workload shuffled = workload(
      8, {job(2, 5, 10, 10, 1), job(1, 0, 10, 10, 1), job(4, 9, 10, 10, 1),
          job(3, 7, 10, 10, 1)});
  SortingJobStream sorter(std::make_unique<VectorJobStream>(shuffled), 2);

  std::vector<JobId> order;
  while (const std::optional<Job> next = sorter.next()) {
    order.push_back(next->id);
  }
  EXPECT_EQ(order, (std::vector<JobId>{1, 2, 3, 4}));
}

TEST(SortingJobStreamTest, ViolationBeyondTheWindowThrows) {
  // Job 1 arrives three positions late but the window holds only two
  // pending jobs — emitting would time-travel, so next() must throw.
  const Workload shuffled = workload(
      8, {job(2, 5, 10, 10, 1), job(3, 7, 10, 10, 1), job(4, 9, 10, 10, 1),
          job(1, 0, 10, 10, 1)});
  SortingJobStream sorter(std::make_unique<VectorJobStream>(shuffled), 2);
  EXPECT_THROW(
      {
        while (sorter.next()) {
        }
      },
      Error);
}

}  // namespace
}  // namespace bsld::wl
