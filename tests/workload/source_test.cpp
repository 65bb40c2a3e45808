#include "workload/source.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "testing/config_value.hpp"
#include "util/error.hpp"
#include "workload/swf.hpp"

namespace bsld::wl {
namespace {

using testing::config_value;

/// Writes a workload as SWF to a unique temp path; removed on destruction.
class TempSwf {
 public:
  explicit TempSwf(const Workload& workload)
      : path_(::testing::TempDir() + "source_test_" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
              ".swf") {
    save_swf_file(path_, workload);
  }
  ~TempSwf() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(WorkloadSourceTest, ArchiveMatchesCanonicalWorkload) {
  const Workload canonical = make_archive_workload(Archive::kSDSC, 400);
  const Workload loaded =
      load_source(WorkloadSource::from_archive(Archive::kSDSC, 400));
  EXPECT_EQ(loaded.cpus, canonical.cpus);
  EXPECT_EQ(loaded.jobs, canonical.jobs);
}

TEST(WorkloadSourceTest, ArchiveSeedOverrideChangesTrace) {
  const Workload canonical =
      load_source(WorkloadSource::from_archive(Archive::kSDSC, 400));
  const Workload reseeded =
      load_source(WorkloadSource::from_archive(Archive::kSDSC, 400, 99));
  EXPECT_EQ(reseeded.jobs.size(), canonical.jobs.size());
  EXPECT_NE(reseeded.jobs, canonical.jobs);
  // And matches a direct generate() with the same seed.
  const Workload direct = generate(archive_spec(Archive::kSDSC, 400), 99);
  EXPECT_EQ(reseeded.jobs, direct.jobs);
}

TEST(WorkloadSourceTest, InlineSpecGenerates) {
  WorkloadSpec spec;
  spec.name = "custom";
  spec.cpus = 64;
  spec.num_jobs = 150;
  const WorkloadSource source = WorkloadSource::from_spec(spec, 7);
  const Workload workload = load_source(source);
  EXPECT_EQ(workload.name, "custom");
  EXPECT_EQ(workload.cpus, 64);
  EXPECT_EQ(workload.jobs.size(), 150u);
  EXPECT_EQ(workload.jobs, generate(spec, 7).jobs);
  // `jobs` > 0 overrides the spec's num_jobs.
  WorkloadSource shorter = source;
  shorter.jobs = 50;
  EXPECT_EQ(load_source(shorter).jobs.size(), 50u);
}

TEST(WorkloadSourceTest, SwfRoundTripsThroughCleanAndSlice) {
  const Workload original = make_archive_workload(Archive::kSDSC, 300);
  const TempSwf file(original);

  // Whole file.
  CleanReport report;
  const Workload whole =
      load_source(WorkloadSource::from_swf(file.path()), &report);
  EXPECT_EQ(whole.name, file.path());
  EXPECT_EQ(whole.cpus, original.cpus);  // MaxProcs header
  EXPECT_EQ(whole.jobs.size(), original.jobs.size());
  EXPECT_EQ(report.kept, original.jobs.size());

  // Sliced.
  const Workload sliced =
      load_source(WorkloadSource::from_swf(file.path(), /*jobs=*/100));
  EXPECT_EQ(sliced.jobs.size(), 100u);

  // Machine override clamps oversized jobs.
  const Workload clamped =
      load_source(WorkloadSource::from_swf(file.path(), 0, /*cpus=*/16));
  EXPECT_EQ(clamped.cpus, 16);
  for (const Job& job : clamped.jobs) EXPECT_LE(job.size, 16);
}

TEST(WorkloadSourceTest, MissingSwfFileThrows) {
  EXPECT_THROW(
      (void)load_source(WorkloadSource::from_swf("/no/such/file.swf")),
      Error);
}

TEST(WorkloadSourceTest, ResolveSourcePrefersArchiveNames) {
  const WorkloadSource archive = resolve_source("LLNLAtlas", 1000);
  EXPECT_EQ(archive.kind, WorkloadSource::Kind::kArchive);
  EXPECT_EQ(archive.archive, Archive::kLLNLAtlas);
  EXPECT_EQ(archive.jobs, 1000);

  const WorkloadSource file = resolve_source("some/trace.swf", 0);
  EXPECT_EQ(file.kind, WorkloadSource::Kind::kSwf);
  EXPECT_EQ(file.path, "some/trace.swf");
}

TEST(WorkloadSourceTest, LabelsAndSeeds) {
  EXPECT_EQ(source_label(WorkloadSource::from_archive(Archive::kCTC)), "CTC");
  EXPECT_EQ(source_label(WorkloadSource::from_swf("a.swf")), "a.swf");
  WorkloadSpec spec;
  spec.name = "mine";
  EXPECT_EQ(source_label(WorkloadSource::from_spec(spec, 1)), "mine");

  // Archive: canonical seed unless overridden.
  EXPECT_EQ(source_seed(WorkloadSource::from_archive(Archive::kCTC)),
            archive_seed(Archive::kCTC));
  EXPECT_EQ(source_seed(WorkloadSource::from_archive(Archive::kCTC, 100, 5)),
            5u);
  // SWF: deterministic per path, distinct across paths.
  EXPECT_EQ(source_seed(WorkloadSource::from_swf("a.swf")),
            source_seed(WorkloadSource::from_swf("a.swf")));
  EXPECT_NE(source_seed(WorkloadSource::from_swf("a.swf")),
            source_seed(WorkloadSource::from_swf("b.swf")));
}

TEST(WorkloadSourceConfigTest, RoundTripsEveryKind) {
  WorkloadSpec spec;
  spec.name = "inline-wl";
  spec.cpus = 96;
  spec.runtime.classes = {{0.7, 5.0, 0.8}, {0.3, 8.0, 1.2}};
  const std::vector<WorkloadSource> sources = {
      WorkloadSource::from_archive(Archive::kSDSCBlue, 1234, 42),
      WorkloadSource::from_swf("traces/ctc.swf", 500, 430),
      WorkloadSource::from_spec(spec, 11),
  };
  for (const WorkloadSource& source : sources) {
    const util::Config config = util::write_config(source);
    const WorkloadSource parsed = util::read_config<WorkloadSource>(config);
    EXPECT_EQ(parsed, source);
    // Re-serialization is byte-identical.
    const util::Config again = util::write_config(parsed);
    EXPECT_EQ(again.to_string(), config.to_string());
  }
}

TEST(WorkloadSourceConfigTest, FullRangeSeedsRoundTrip) {
  // Seeds are uint64; values above INT64_MAX must still serialize and parse
  // (e.g. a CLI `--seed -1` wraps to 2^64 - 1).
  WorkloadSource source = WorkloadSource::from_archive(
      Archive::kCTC, 100, std::numeric_limits<std::uint64_t>::max());
  const util::Config config = util::write_config(source);
  EXPECT_EQ(config_value<std::string>(config, "workload.seed", ""),
            "18446744073709551615");
  EXPECT_EQ(util::read_config<WorkloadSource>(config), source);

  util::Config bad;
  bad.set("workload.seed", "not-a-seed");
  EXPECT_THROW((void)util::read_config<WorkloadSource>(bad), Error);
}

TEST(WorkloadSourceTest, ResolveSourceArchiveIgnoresWholeFileJobs) {
  // jobs = 0 ("whole file") coming from an SWF-shaped invocation must not
  // produce an unloadable archive source.
  const WorkloadSource source = resolve_source("CTC", 0);
  EXPECT_EQ(source.kind, WorkloadSource::Kind::kArchive);
  EXPECT_EQ(source.jobs, 5000);
}

TEST(WorkloadSourceConfigTest, JobsDefaultMatchesTheFactories) {
  // Omitting workload.jobs must mean "paper slice" for archives but "whole
  // file" for SWF sources, exactly like the from_* factories.
  util::Config archive;
  archive.set("workload.source", "archive");
  archive.set("workload.archive", "CTC");
  EXPECT_EQ(util::read_config<WorkloadSource>(archive).jobs, 5000);

  util::Config swf;
  swf.set("workload.source", "swf");
  swf.set("workload.path", "trace.swf");
  EXPECT_EQ(util::read_config<WorkloadSource>(swf).jobs, 0);
}

TEST(WorkloadSourceConfigTest, UnknownKindThrows) {
  util::Config config;
  config.set("workload.source", "sql");
  EXPECT_THROW((void)util::read_config<WorkloadSource>(config), Error);
}

TEST(WorkloadSourceConfigTest, SwfWithoutPathThrows) {
  util::Config config;
  config.set("workload.source", "swf");
  EXPECT_THROW((void)util::read_config<WorkloadSource>(config), Error);
}

}  // namespace
}  // namespace bsld::wl
