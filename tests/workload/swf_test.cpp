#include "workload/swf.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace bsld::wl {
namespace {

// One valid SWF line: id submit wait run alloc cpu mem reqprocs reqtime
// reqmem status user group exe queue part preceding think.
constexpr const char* kLine =
    "1 100 5 3600 16 -1 -1 16 7200 -1 1 42 -1 -1 -1 -1 -1 -1\n";

TEST(SwfTest, ParsesMandatoryFields) {
  const SwfTrace trace = parse_swf_text(kLine);
  ASSERT_EQ(trace.jobs.size(), 1u);
  const Job& job = trace.jobs[0];
  EXPECT_EQ(job.id, 1);
  EXPECT_EQ(job.submit, 100);
  EXPECT_EQ(job.run_time, 3600);
  EXPECT_EQ(job.size, 16);
  EXPECT_EQ(job.requested_time, 7200);
  EXPECT_EQ(job.user_id, 42);
}

TEST(SwfTest, HeaderDirectives) {
  const SwfTrace trace = parse_swf_text(
      "; MaxProcs: 430\n"
      "; UnixStartTime: 123456\n"
      ";   free-form comment without colon structure --\n" +
      std::string(kLine));
  EXPECT_EQ(trace.max_procs(0), 430);
  EXPECT_EQ(trace.header.at("UnixStartTime"), "123456");
}

TEST(SwfTest, MaxProcsFallback) {
  const SwfTrace trace = parse_swf_text(kLine);
  EXPECT_EQ(trace.max_procs(99), 99);
}

TEST(SwfTest, AllocatedFallsBackToRequestedProcs) {
  const SwfTrace trace = parse_swf_text(
      "1 0 -1 100 -1 -1 -1 8 200 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].size, 8);
}

TEST(SwfTest, RequestedTimeFallsBackToRuntime) {
  const SwfTrace trace = parse_swf_text(
      "1 0 -1 100 4 -1 -1 4 -1 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].requested_time, 100);
}

TEST(SwfTest, SkipsUnusableLines) {
  // Bad size (0 procs) and bad id (0) are skipped, not fatal.
  const SwfTrace trace = parse_swf_text(
      "0 0 -1 100 4 -1 -1 4 200 -1 1 0 -1 -1 -1 -1 -1 -1\n"
      "2 0 -1 100 0 -1 -1 0 200 -1 1 0 -1 -1 -1 -1 -1 -1\n" +
      std::string(kLine));
  EXPECT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.skipped_lines, 2u);
}

TEST(SwfTest, StructurallyBrokenLineSkippedAndCounted) {
  // One mangled record in a multi-million-job archive must not abort an
  // hours-long sweep: the default mode skips it with a count.
  const SwfTrace trace = parse_swf_text("1 2 3\n" + std::string(kLine));
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.skipped_lines, 1u);
}

TEST(SwfTest, TimeFieldBeyondInt64RangeSkippedNotUndefined) {
  // A fractional-form time like 1e19 parses as a finite double but does
  // not fit int64; truncating it would be UB. It must read as a malformed
  // field (skipped/counted), not an arbitrary value.
  const SwfTrace trace = parse_swf_text(
      "1 1e19 -1 100 4 -1 -1 4 200 -1 1 0 -1 -1 -1 -1 -1 -1\n" +
      std::string(kLine));
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.skipped_lines, 1u);
}

TEST(SwfTest, UnparsableMandatoryFieldSkippedAndCounted) {
  const SwfTrace trace = parse_swf_text(
      "1 banana -1 100 4 -1 -1 4 200 -1 1 0 -1 -1 -1 -1 -1 -1\n" +
      std::string(kLine));
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.skipped_lines, 1u);
}

TEST(SwfTest, StrictModeNamesTheLine) {
  const SwfOptions strict{.strict = true};
  try {
    (void)parse_swf_text(std::string(kLine) + "1 2 3\n", strict);
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
  try {
    (void)parse_swf_text(
        "1 banana -1 100 4 -1 -1 4 200 -1 1 0 -1 -1 -1 -1 -1 -1\n", strict);
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("line 1"), std::string::npos);
  }
}

TEST(SwfTest, StrictModeStillSkipsUnusableValues) {
  // id/size <= 0 is the archives' own cancelled-job convention, not a
  // malformed file: strict mode keeps skipping those.
  const SwfTrace trace = parse_swf_text(
      "0 0 -1 100 4 -1 -1 4 200 -1 1 0 -1 -1 -1 -1 -1 -1\n" +
          std::string(kLine),
      SwfOptions{.strict = true});
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.skipped_lines, 1u);
}

TEST(SwfTest, SortsBySubmitThenId) {
  const SwfTrace trace = parse_swf_text(
      "5 300 -1 10 1 -1 -1 1 10 -1 1 0 -1 -1 -1 -1 -1 -1\n"
      "3 100 -1 10 1 -1 -1 1 10 -1 1 0 -1 -1 -1 -1 -1 -1\n"
      "4 100 -1 10 1 -1 -1 1 10 -1 1 0 -1 -1 -1 -1 -1 -1\n");
  ASSERT_EQ(trace.jobs.size(), 3u);
  EXPECT_EQ(trace.jobs[0].id, 3);
  EXPECT_EQ(trace.jobs[1].id, 4);
  EXPECT_EQ(trace.jobs[2].id, 5);
}

TEST(SwfTest, ToleratesCrLfAndFractionalSeconds) {
  const SwfTrace trace = parse_swf_text(
      "1 100.7 -1 3600.2 4 -1 -1 4 7200 -1 1 0 -1 -1 -1 -1 -1 -1\r\n");
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].submit, 100);
  EXPECT_EQ(trace.jobs[0].run_time, 3600);
}

TEST(SwfTest, LinesWithMoreThanEighteenFieldsAreAccepted) {
  // Some archives append site-specific columns; only the first 18 count.
  const SwfTrace trace = parse_swf_text(
      "1 100 5 3600 16 -1 -1 16 7200 -1 1 42 -1 -1 -1 -1 -1 -1 7\n"
      "2 200 5 3600 16 -1 -1 16 7200 -1 1 42 -1 -1 -1 -1 -1 -1 x y z w\n",
      SwfOptions{.strict = true});
  ASSERT_EQ(trace.jobs.size(), 2u);
  EXPECT_EQ(trace.skipped_lines, 0u);
  EXPECT_EQ(trace.jobs[1].id, 2);
  EXPECT_EQ(trace.jobs[1].submit, 200);
  EXPECT_EQ(trace.jobs[1].user_id, 42);
}

TEST(SwfTest, SeventeenFieldLineIsSkippedOrNamedWithItsCount) {
  const std::string short_line =
      "1 100 5 3600 16 -1 -1 16 7200 -1 1 42 -1 -1 -1 -1 -1\n";
  const SwfTrace trace = parse_swf_text(short_line + kLine);
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.skipped_lines, 1u);
  try {
    (void)parse_swf_text(kLine + short_line, SwfOptions{.strict = true});
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what())
                  .find("SWF: line 2 has only 17 fields (expected 18)"),
              std::string::npos)
        << error.what();
  }
}

TEST(SwfTest, EveryCLocaleSpaceSeparatesFields) {
  // Tab, CR, VT and FF separate fields like a space does, and a record
  // may start with whitespace.
  const SwfTrace trace = parse_swf_text(
      " \t1\t100\r5\v3600\f16 -1 -1 16 7200 -1 1 42 -1 -1 -1 -1 -1 -1\n"
      "\v\f;\tMaxProcs:\t64\t\r\n",
      SwfOptions{.strict = true});
  ASSERT_EQ(trace.jobs.size(), 1u);
  const Job& job = trace.jobs[0];
  EXPECT_EQ(job.id, 1);
  EXPECT_EQ(job.submit, 100);
  EXPECT_EQ(job.run_time, 3600);
  EXPECT_EQ(job.size, 16);
  EXPECT_EQ(job.requested_time, 7200);
  EXPECT_EQ(job.user_id, 42);
  EXPECT_EQ(trace.max_procs(0), 64);
}

TEST(SwfTest, WriteReadRoundTrip) {
  Workload workload;
  workload.name = "roundtrip";
  workload.cpus = 64;
  workload.jobs = {
      {1, 0, 100, 200, 4, 7},
      {2, 50, 3600, 4000, 64, 8},
  };
  std::ostringstream out;
  write_swf(out, workload);
  const SwfTrace trace = parse_swf_text(out.str());
  EXPECT_EQ(trace.max_procs(0), 64);
  ASSERT_EQ(trace.jobs.size(), 2u);
  EXPECT_EQ(trace.jobs[0], workload.jobs[0]);
  EXPECT_EQ(trace.jobs[1], workload.jobs[1]);
}

TEST(SwfTest, WriterFormatsRecordsAsStreamInsertionDoes) {
  // Extreme field values keep their decimal spelling, sign included.
  Workload workload;
  workload.name = "extremes";
  workload.cpus = 8;
  workload.jobs = {
      {std::numeric_limits<JobId>::max(), std::numeric_limits<Time>::min(),
       std::numeric_limits<Time>::max(), 0,
       std::numeric_limits<std::int32_t>::min(),
       std::numeric_limits<std::int32_t>::max()},
      {1, 0, 10, 20, 2, -1},
  };
  std::ostringstream expected;
  expected << "; Workload: extremes\n; MaxProcs: 8\n"
              "; Generated by bsldsched (synthetic trace, SWF layout)\n";
  for (const Job& job : workload.jobs) {
    expected << job.id << ' ' << job.submit << " -1 " << job.run_time << ' '
             << job.size << " -1 -1 " << job.size << ' '
             << job.requested_time << " -1 1 " << job.user_id
             << " -1 -1 -1 -1 -1 -1\n";
  }
  std::ostringstream out;
  write_swf(out, workload);
  EXPECT_EQ(out.str(), expected.str());
}

TEST(SwfTest, MissingFileThrows) {
  EXPECT_THROW((void)load_swf_file("/no/such/file.swf"), Error);
}

TEST(SwfTest, FileRoundTrip) {
  Workload workload;
  workload.name = "file-roundtrip";
  workload.cpus = 8;
  workload.jobs = {{1, 0, 10, 20, 2, 0}};
  const std::string path = testing::TempDir() + "/bsld_swf_test.swf";
  save_swf_file(path, workload);
  const SwfTrace trace = load_swf_file(path);
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0], workload.jobs[0]);
}

}  // namespace
}  // namespace bsld::wl
