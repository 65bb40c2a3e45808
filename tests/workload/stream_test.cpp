/// \file stream_test.cpp
/// \brief Unit tests of the pull-based workload pipeline: open_stream /
/// materialize parity with load_source, SWF slicing through the streaming
/// parser, and SortingJobStream's bounded re-order window.
#include "workload/stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "testing/helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
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
  ASSERT_EQ(sorter.next()->id, 2);
  try {
    (void)sorter.next();
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(),
                 "SortingJobStream: record out of order by more than 2 "
                 "positions (job 1 at t=0 after t=5)");
  }
}

TEST(SortingJobStreamTest, ReversedBlockInsideTheWindowIsRestored) {
  // Jobs 41..60 arrive reversed: after 60 joins the sorted run, 59..41
  // all arrive below it and go through the late-record heap.
  std::vector<Job> jobs;
  std::vector<JobId> expected;
  for (JobId id = 1; id <= 100; ++id) {
    jobs.push_back(job(id, id * 10, 5, 5, 1));
    expected.push_back(id);
  }
  std::reverse(jobs.begin() + 40, jobs.begin() + 60);
  SortingJobStream sorter(
      std::make_unique<VectorJobStream>(workload(8, jobs)), 32);
  std::vector<JobId> order;
  while (const std::optional<Job> next = sorter.next()) {
    order.push_back(next->id);
  }
  EXPECT_EQ(order, expected);
}

/// What a sorter emitted before it stopped, and why it stopped early.
struct Drain {
  std::vector<Job> jobs;
  std::optional<std::string> error;
};

Drain drain_sorter(const std::vector<Job>& input, std::size_t window) {
  SortingJobStream sorter(
      std::make_unique<VectorJobStream>(workload(8, input)), window);
  Drain out;
  try {
    while (const std::optional<Job> next = sorter.next()) {
      out.jobs.push_back(*next);
    }
  } catch (const Error& error) {
    out.error = error.what();
  }
  return out;
}

/// An independent restatement of the window's contract: keep window + 1
/// records pending in one sorted buffer, always emit the smallest under
/// (submit, id, arrival), and fail on emitting below the last emission.
Drain drain_reference(const std::vector<Job>& input, std::size_t window) {
  std::vector<std::pair<Job, std::size_t>> pending;  // (job, arrival)
  auto less = [](const auto& a, const auto& b) {
    return std::tie(a.first.submit, a.first.id, a.second) <
           std::tie(b.first.submit, b.first.id, b.second);
  };
  Drain out;
  std::size_t read = 0;
  while (true) {
    while (read < input.size() && pending.size() <= window) {
      pending.emplace_back(input[read], read);
      ++read;
    }
    if (pending.empty()) return out;
    const auto smallest = std::min_element(pending.begin(), pending.end(), less);
    const Job job = smallest->first;
    pending.erase(smallest);
    if (!out.jobs.empty() &&
        std::tie(job.submit, job.id) <
            std::tie(out.jobs.back().submit, out.jobs.back().id)) {
      out.error = "SortingJobStream: record out of order by more than " +
                  std::to_string(window) + " positions (job " +
                  std::to_string(job.id) + " at t=" +
                  std::to_string(job.submit) + " after t=" +
                  std::to_string(out.jobs.back().submit) + ")";
      return out;
    }
    out.jobs.push_back(job);
  }
}

/// A (submit, id)-sorted trace with many equal submits and duplicate
/// (submit, id) pairs; run_time tags each record so ties stay visible.
std::vector<Job> sorted_trace_with_ties(util::Rng& rng, std::size_t count) {
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back(job(rng.uniform_int(1, 6), rng.uniform_int(0, 40),
                       static_cast<Time>(i + 1), static_cast<Time>(i + 1),
                       1));
  }
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return std::tie(a.submit, a.id) < std::tie(b.submit, b.id);
  });
  return jobs;
}

/// Shuffles consecutive blocks of at most `block` records in place.
void shuffle_blocks(util::Rng& rng, std::vector<Job>& jobs,
                    std::size_t block) {
  for (std::size_t begin = 0; begin < jobs.size();) {
    const auto size = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(block)));
    const std::size_t end = std::min(jobs.size(), begin + size);
    for (std::size_t i = end - 1; i > begin; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(begin), static_cast<std::int64_t>(i)));
      std::swap(jobs[i], jobs[j]);
    }
    begin = end;
  }
}

TEST(SortingJobStreamTest, JitterWithinTheWindowYieldsTheStableSort) {
  // A block of window + 1 records holds each one at most `window`
  // positions after its sorted place, which the window must absorb.
  for (const std::size_t window : {1u, 2u, 7u, 64u}) {
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
      util::Rng rng(seed * 131 + window);
      std::vector<Job> input = sorted_trace_with_ties(rng, 300);
      shuffle_blocks(rng, input, window + 1);
      std::vector<Job> expected = input;
      std::stable_sort(expected.begin(), expected.end(),
                       [](const Job& a, const Job& b) {
                         return std::tie(a.submit, a.id) <
                                std::tie(b.submit, b.id);
                       });
      const Drain drained = drain_sorter(input, window);
      ASSERT_FALSE(drained.error.has_value())
          << "window " << window << " seed " << seed << ": "
          << *drained.error;
      ASSERT_EQ(drained.jobs, expected)
          << "window " << window << " seed " << seed;
    }
  }
}

TEST(SortingJobStreamTest, AnyDisorderMatchesTheReferenceWindow) {
  // Blocks up to four times the window: some inputs sort, others throw.
  // Either way the emitted prefix and the message match the reference.
  std::size_t threw = 0;
  for (const std::size_t window : {1u, 3u, 16u}) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      util::Rng rng(seed * 977 + window);
      std::vector<Job> input = sorted_trace_with_ties(rng, 200);
      shuffle_blocks(rng, input, 4 * window + 1);
      const Drain expected = drain_reference(input, window);
      const Drain drained = drain_sorter(input, window);
      ASSERT_EQ(drained.jobs, expected.jobs)
          << "window " << window << " seed " << seed;
      ASSERT_EQ(drained.error, expected.error)
          << "window " << window << " seed " << seed;
      if (expected.error) ++threw;
    }
  }
  EXPECT_GT(threw, 0u);  // the beyond-the-window path was exercised
}

}  // namespace
}  // namespace bsld::wl
