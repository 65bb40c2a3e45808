#include "report/grid.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace bsld::report {
namespace {

TEST(GridTest, NoAxesYieldsTheBaseSpec) {
  util::Config config;
  config.set("workload.archive", "SDSC");
  config.set("workload.jobs", "300");
  const std::vector<RunSpec> specs = expand_grid(config);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].workload.archive, wl::Archive::kSDSC);
  EXPECT_EQ(specs[0].workload.jobs, 300);
  EXPECT_FALSE(specs[0].policy.dvfs.has_value());  // base default: no DVFS.
}

TEST(GridTest, CrossProductInDocumentedOrder) {
  util::Config config;
  config.set("workload.jobs", "100");
  config.set("sweep.workloads", "CTC, SDSC");
  config.set("sweep.bsld_thresholds", "1.5, 2");
  config.set("sweep.wq_thresholds", "4, NO");
  config.set("sweep.scales", "1, 1.2");
  const std::vector<RunSpec> specs = expand_grid(config);
  ASSERT_EQ(specs.size(), 16u);  // 2 x 2 x 2 x 2.

  // Workloads outermost: first half CTC, second half SDSC.
  EXPECT_EQ(specs[0].workload.archive, wl::Archive::kCTC);
  EXPECT_EQ(specs[8].workload.archive, wl::Archive::kSDSC);
  // The axis propagates the base trace length.
  EXPECT_EQ(specs[0].workload.jobs, 100);
  // Then BSLD, then WQ, then scale (innermost).
  ASSERT_TRUE(specs[0].policy.dvfs.has_value());
  EXPECT_DOUBLE_EQ(specs[0].policy.dvfs->bsld_threshold, 1.5);
  EXPECT_EQ(specs[0].policy.dvfs->wq_threshold, 4);
  EXPECT_DOUBLE_EQ(specs[0].size_scale, 1.0);
  EXPECT_DOUBLE_EQ(specs[1].size_scale, 1.2);
  EXPECT_FALSE(specs[2].policy.dvfs->wq_threshold.has_value());  // NO.
  EXPECT_DOUBLE_EQ(specs[4].policy.dvfs->bsld_threshold, 2.0);

  // Every expanded spec is distinct: the grid is dedup/shard-friendly.
  std::set<std::string> keys;
  for (const RunSpec& spec : specs) keys.insert(spec.key());
  EXPECT_EQ(keys.size(), specs.size());
}

TEST(GridTest, ThresholdAxesRefineTheBaseDvfsConfig) {
  util::Config config;
  config.set("policy.dvfs", "true");
  config.set("policy.bsld_floor", "30");
  config.set("sweep.bsld_thresholds", "3");
  const std::vector<RunSpec> specs = expand_grid(config);
  ASSERT_EQ(specs.size(), 1u);
  ASSERT_TRUE(specs[0].policy.dvfs.has_value());
  EXPECT_DOUBLE_EQ(specs[0].policy.dvfs->bsld_threshold, 3.0);
  EXPECT_EQ(specs[0].policy.dvfs->bsld_floor, 30);  // base refinement kept.
}

TEST(GridTest, WithoutThresholdAxesTheBaselinePolicySurvives) {
  util::Config config;
  config.set("sweep.scales", "1, 1.5, 2");
  const std::vector<RunSpec> specs = expand_grid(config);
  ASSERT_EQ(specs.size(), 3u);
  for (const RunSpec& spec : specs) {
    EXPECT_FALSE(spec.policy.dvfs.has_value());  // still a no-DVFS baseline.
  }
  EXPECT_DOUBLE_EQ(specs[2].size_scale, 2.0);
}

TEST(GridTest, BadWqTokenThrows) {
  util::Config config;
  config.set("sweep.wq_thresholds", "4, sometimes");
  EXPECT_THROW((void)expand_grid(config), Error);

  util::Config negative;
  negative.set("sweep.wq_thresholds", "-3");
  EXPECT_THROW((void)expand_grid(negative), Error);
}

TEST(GridTest, PmAxesExpandInnermostWithTheWattsOnTheRightKnob) {
  util::Config config;
  config.set("workload.jobs", "100");
  config.set("sweep.workloads", "CTC, SDSC");
  config.set("sweep.pm", "cap-uniform, setpoint");
  config.set("sweep.pm_cap_watts", "4000, 8000");
  const std::vector<RunSpec> specs = expand_grid(config);
  ASSERT_EQ(specs.size(), 8u);  // 2 workloads x 2 managers x 2 budgets.

  // Workloads outermost, pm names next, watts innermost.
  EXPECT_EQ(specs[0].workload.archive, wl::Archive::kCTC);
  EXPECT_EQ(specs[4].workload.archive, wl::Archive::kSDSC);
  EXPECT_EQ(specs[0].pm.name, "cap-uniform");
  EXPECT_EQ(specs[2].pm.name, "setpoint");
  // The cap families take the watts as their hard cap...
  EXPECT_EQ(specs[0].pm.cap_watts, 4000.0);
  EXPECT_EQ(specs[1].pm.cap_watts, 8000.0);
  EXPECT_FALSE(specs[0].pm.setpoint_watts.has_value());
  // ...while "setpoint" takes them as the control target.
  EXPECT_EQ(specs[2].pm.setpoint_watts, 4000.0);
  EXPECT_EQ(specs[3].pm.setpoint_watts, 8000.0);
  EXPECT_FALSE(specs[2].pm.cap_watts.has_value());
}

TEST(GridTest, PmWattsAxisIsIgnoredForParameterlessManagers) {
  util::Config config;
  config.set("sweep.pm", "none, sleep");
  config.set("sweep.pm_cap_watts", "4000, 8000");
  const std::vector<RunSpec> specs = expand_grid(config);
  ASSERT_EQ(specs.size(), 4u);
  for (const RunSpec& spec : specs) {
    EXPECT_FALSE(spec.pm.cap_watts.has_value());
    EXPECT_FALSE(spec.pm.setpoint_watts.has_value());
  }
  // The watts collapse to duplicate specs, which a sweep deduplicates by
  // key: only two distinct runs remain.
  EXPECT_EQ(specs[0].key(), specs[1].key());
  EXPECT_EQ(specs[2].key(), specs[3].key());
  EXPECT_NE(specs[0].key(), specs[2].key());
}

TEST(GridTest, PmAxisValidatesEverySpecAtExpansion) {
  util::Config unknown;
  unknown.set("sweep.pm", "cap-uniform, warp-drive");
  unknown.set("sweep.pm_cap_watts", "4000");
  EXPECT_THROW((void)expand_grid(unknown), Error);

  // A capping family swept without any watts fails the family rule up
  // front instead of mid-sweep.
  util::Config capless;
  capless.set("sweep.pm", "cap-uniform");
  EXPECT_THROW((void)expand_grid(capless), Error);
}

TEST(GridTest, UnknownWorkloadNameSurfacesAsError) {
  util::Config config;
  config.set("sweep.workloads", "CTC, /no/such/trace.swf");
  // resolve_source treats unknown names as SWF paths; expansion succeeds
  // and the error surfaces at load time, same as a single mistyped run.
  const std::vector<RunSpec> specs = expand_grid(config);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[1].workload.kind, wl::WorkloadSource::Kind::kSwf);
  EXPECT_THROW((void)run_one(specs[1]), Error);
}

TEST(GridTest, ThresholdAxisOverANoDvfsBaseHasNoWqLimit) {
  // A grid point reads like a spec file: `policy.dvfs = true` without
  // `policy.wq_threshold` means no WQ limit.
  util::Config config;
  config.set("sweep.bsld_thresholds", "1.5, 2");
  const std::vector<RunSpec> specs = expand_grid(config);
  ASSERT_EQ(specs.size(), 2u);
  for (const RunSpec& spec : specs) {
    ASSERT_TRUE(spec.policy.dvfs.has_value());
    EXPECT_FALSE(spec.policy.dvfs->wq_threshold.has_value());
  }
  // A base WQ threshold still applies to every point.
  config.set("policy.wq_threshold", "16");
  config.set("policy.dvfs", "true");
  for (const RunSpec& spec : expand_grid(config)) {
    EXPECT_EQ(spec.policy.dvfs->wq_threshold, 16);
  }
}

/// The message of the bsld::Error expand_grid throws on `config`.
std::string grid_error(const util::Config& config) {
  try {
    (void)expand_grid(config);
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

TEST(GridTest, MisspelledAxisIsAnErrorNamingIt) {
  util::Config config;
  config.set("sweep.bsld_threshold", "1.5, 2");
  EXPECT_NE(grid_error(config).find("`sweep.bsld_threshold`"),
            std::string::npos);
}

TEST(GridTest, AxisValueErrorsNameTheAxis) {
  util::Config wq;
  wq.set("sweep.wq_thresholds", "4, -3");
  EXPECT_NE(grid_error(wq).find("sweep.wq_thresholds"), std::string::npos);
  util::Config bsld;
  bsld.set("sweep.bsld_thresholds", "1.5, high");
  EXPECT_NE(grid_error(bsld).find("sweep.bsld_thresholds"), std::string::npos);
  util::Config watts;
  watts.set("sweep.pm", "none");
  watts.set("sweep.pm_cap_watts", "-5");
  EXPECT_NE(grid_error(watts).find("sweep.pm_cap_watts"), std::string::npos);
}

TEST(GridTest, WorkloadAxisReplacesTheWholeWorkloadGroup) {
  // The base's SWF-only keys go with its source, so they cannot trip the
  // unread-key check on an archive point.
  util::Config config;
  config.set("workload.source", "swf");
  config.set("workload.path", "base.swf");
  config.set("workload.cpus", "64");
  config.set("workload.jobs", "120");
  config.set("sweep.workloads", "CTC, other.swf");
  const std::vector<RunSpec> specs = expand_grid(config);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].workload.kind, wl::WorkloadSource::Kind::kArchive);
  EXPECT_EQ(specs[0].workload.jobs, 120);
  EXPECT_EQ(specs[1].workload.path, "other.swf");
  EXPECT_EQ(specs[1].workload.cpus, 0);
}

TEST(GridTest, SweepSmokeGridKeysArePinned) {
  // examples/specs/sweep_smoke.conf (8 points) expands to the same key
  // sequence it did when grid points were built field by field.
  const std::vector<RunSpec> specs =
      expand_grid(util::Config::load_file(BSLD_SWEEP_SMOKE_GRID));
  ASSERT_EQ(specs.size(), 8u);
  std::string keys;
  for (const RunSpec& spec : specs) keys += spec.key();
  EXPECT_EQ(util::hex64(util::fnv1a64(keys)), "1e669b087726a569") << keys;
}

}  // namespace
}  // namespace bsld::report
