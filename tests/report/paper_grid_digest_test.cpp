/// \file paper_grid_digest_test.cpp
/// \brief Pins the whole paper grid's output: the canonical §5.1 + §5.2
/// grid (original-size grid plus both enlarged grids, 5000-job slices of
/// the canonical archive traces, 145 slots) runs through a two-worker
/// SweepRunner without a cache, and the CSV rendering of every slot in
/// grid order must hash to the pinned digest. Any change to a simulated
/// number changes the digest, and a cached result from before that change
/// would be stale, so a mismatch demands a ResultCache::kSchemaEpoch bump.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "report/figures.hpp"
#include "report/sinks.hpp"
#include "report/sweep.hpp"
#include "util/hash.hpp"

namespace bsld::report {
namespace {

constexpr const char* kPinnedDigest = "36ff79c747dbc2d9";

/// The paper grid in canonical order.
std::vector<RunSpec> paper_grid() {
  std::vector<RunSpec> grid;
  const auto append = [&grid](const std::vector<RunSpec>& part) {
    grid.insert(grid.end(), part.begin(), part.end());
  };
  const OriginalSizeGrid original = original_size_grid(5000);
  append(original.dvfs_specs);
  append(original.baseline_specs);
  for (const std::optional<std::int64_t>& wq :
       {std::optional<std::int64_t>(0), std::optional<std::int64_t>()}) {
    const EnlargedGrid enlarged = enlarged_grid(wq, 5000);
    append(enlarged.dvfs_specs);
    append(enlarged.baseline_specs);
  }
  return grid;
}

TEST(PaperGridDigestTest, CanonicalGridCsvIsPinned) {
  const std::vector<RunSpec> grid = paper_grid();
  ASSERT_EQ(grid.size(), 145u);
  SweepRunner::Options options;
  options.threads = 2;
  SweepRunner runner(options);
  const std::vector<RunResult> results = runner.run(grid);
  ASSERT_EQ(results.size(), grid.size());

  std::ostringstream csv;
  CsvResultSink sink(csv);
  for (std::size_t i = 0; i < results.size(); ++i) sink.on_result(i, results[i]);
  EXPECT_EQ(util::hex64(util::fnv1a64(csv.str())), kPinnedDigest)
      << "results changed: bump kSchemaEpoch";
}

}  // namespace
}  // namespace bsld::report
