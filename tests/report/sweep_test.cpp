#include "report/sweep.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>

#include "report/figures.hpp"
#include "report/result_cache.hpp"
#include "report/sinks.hpp"
#include "testing/csv.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace bsld::report {
namespace {

std::vector<RunSpec> small_grid() {
  std::vector<RunSpec> specs;
  for (const wl::Archive archive :
       {wl::Archive::kCTC, wl::Archive::kSDSC, wl::Archive::kSDSCBlue}) {
    for (const double threshold : {1.5, 2.0}) {
      RunSpec spec;
      spec.workload = wl::WorkloadSource::from_archive(archive, 250);
      core::DvfsConfig dvfs;
      dvfs.bsld_threshold = threshold;
      dvfs.wq_threshold = 4;
      spec.policy.dvfs = dvfs;
      specs.push_back(spec);
    }
  }
  return specs;
}

TEST(SweepTest, ParallelEqualsSerial) {
  const std::vector<RunSpec> specs = small_grid();
  const auto serial = run_all(specs, 1);
  const auto parallel = run_all(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].sim().avg_bsld, parallel[i].sim().avg_bsld);
    EXPECT_DOUBLE_EQ(serial[i].sim().energy.total_joules,
                     parallel[i].sim().energy.total_joules);
    EXPECT_EQ(serial[i].sim().reduced_jobs, parallel[i].sim().reduced_jobs);
  }
}

TEST(SweepTest, ResultsComeBackInInputOrder) {
  const std::vector<RunSpec> specs = small_grid();
  const auto results = run_all(specs, 3);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(results[i].spec.workload.archive, specs[i].workload.archive);
    EXPECT_DOUBLE_EQ(results[i].spec.policy.dvfs->bsld_threshold,
                     specs[i].policy.dvfs->bsld_threshold);
  }
}

TEST(SweepTest, EmptyInput) {
  EXPECT_TRUE(run_all({}).empty());
}

TEST(SweepTest, MoreThreadsThanWork) {
  std::vector<RunSpec> specs;
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 200);
  specs.push_back(spec);
  const auto results = run_all(specs, 16);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].sim().avg_bsld, 0.0);
}

// Regression: the thread-count clamp in run_all must hold at both
// boundaries — an explicit thread count with zero specs (run_all returns
// the empty result before any worker is spawned, for every thread count),
// and a thread count far above the spec count (clamped down to the spec
// count, and still bit-identical to the serial run).
TEST(SweepTest, EmptyInputWithExplicitThreads) {
  EXPECT_TRUE(run_all({}, 1).empty());
  EXPECT_TRUE(run_all({}, 8).empty());
  EXPECT_TRUE(run_all({}, 1024).empty());
}

TEST(SweepTest, ThreadCountFarAboveSpecCountMatchesSerial) {
  std::vector<RunSpec> specs;
  for (const wl::Archive archive : {wl::Archive::kCTC, wl::Archive::kSDSC}) {
    RunSpec spec;
    spec.workload = wl::WorkloadSource::from_archive(archive, 150);
    specs.push_back(spec);
  }
  const auto serial = run_all(specs, 1);
  const auto clamped = run_all(specs, 1024);  // clamps to specs.size() == 2
  ASSERT_EQ(serial.size(), clamped.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].sim().avg_bsld, clamped[i].sim().avg_bsld);
    EXPECT_DOUBLE_EQ(serial[i].sim().energy.total_joules,
                     clamped[i].sim().energy.total_joules);
    EXPECT_EQ(serial[i].sim().makespan, clamped[i].sim().makespan);
  }
}

TEST(SweepTest, ExceptionsPropagate) {
  std::vector<RunSpec> specs = small_grid();
  specs[2].size_scale = -1.0;  // invalid spec fails inside a worker
  EXPECT_THROW((void)run_all(specs, 4), Error);
}

TEST(SweepRunnerTest, DedupExecutesIdenticalSpecsOnce) {
  // A grid with heavy duplication: 3 distinct specs, each submitted 3x.
  std::vector<RunSpec> distinct = small_grid();
  distinct.resize(3);
  std::vector<RunSpec> specs;
  for (int repeat = 0; repeat < 3; ++repeat) {
    specs.insert(specs.end(), distinct.begin(), distinct.end());
  }

  SweepRunner runner(SweepRunner::Options{.threads = 2});
  const auto deduped = runner.run(specs);
  EXPECT_EQ(runner.progress().total, 9u);
  EXPECT_EQ(runner.progress().completed, 9u);
  EXPECT_EQ(runner.progress().executed, 3u);
  EXPECT_EQ(runner.progress().deduplicated, 6u);

  // Every duplicate slot carries its own spec and the result of an
  // independent run of it.
  const auto all = run_all(distinct, 2);
  ASSERT_EQ(deduped.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(deduped[i].spec, specs[i]);
    const RunResult& independent = all[i % distinct.size()];
    EXPECT_DOUBLE_EQ(deduped[i].sim().avg_bsld, independent.sim().avg_bsld);
    EXPECT_DOUBLE_EQ(deduped[i].sim().energy.total_joules,
                     independent.sim().energy.total_joules);
    EXPECT_EQ(deduped[i].sim().makespan, independent.sim().makespan);
  }
}

TEST(SweepRunnerTest, ProgressCallbackObservesEveryCompletion) {
  const std::vector<RunSpec> specs = small_grid();
  SweepRunner runner(SweepRunner::Options{.threads = 3});
  std::size_t calls = 0;
  std::size_t last_completed = 0;
  runner.on_progress([&](const SweepRunner::Progress& progress,
                         const RunSpec& finished) {
    ++calls;
    EXPECT_GT(progress.completed, last_completed);  // monotone under the lock
    last_completed = progress.completed;
    EXPECT_EQ(progress.total, specs.size());
    EXPECT_FALSE(finished.label().empty());
  });
  (void)runner.run(specs);
  EXPECT_EQ(calls, specs.size());  // small_grid has no duplicates
  EXPECT_EQ(last_completed, specs.size());
}

TEST(SweepRunnerTest, SinksSeeEverySlotExactlyOnce) {
  // Duplicate the first spec so dedup fans one run out to two slots; the
  // rendered rows still cover every slot once, in grid order.
  std::vector<RunSpec> specs = small_grid();
  specs.resize(3);
  specs.push_back(specs[0]);
  SweepRunner runner(SweepRunner::Options{.threads = 2});
  const std::vector<RunResult> results = runner.run(specs);
  EXPECT_EQ(runner.progress().executed, 3u);
  std::ostringstream out;
  CsvResultSink sink(out);
  for (std::size_t i = 0; i < results.size(); ++i) {
    sink.on_result(i, results[i]);
  }
  const auto rows = bsld::testing::parse_csv(out.str());
  ASSERT_EQ(rows.size(), specs.size() + 1);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(rows[i + 1][0], std::to_string(i));
    EXPECT_EQ(rows[i + 1][1], specs[i].label());
  }
  // The fanned-out slot renders the same metrics as its twin.
  EXPECT_EQ(std::vector<std::string>(rows[4].begin() + 1, rows[4].end()),
            std::vector<std::string>(rows[1].begin() + 1, rows[1].end()));
}

TEST(SweepRunnerTest, CsvSinkStreamsHeaderAndRows) {
  std::vector<RunSpec> specs = small_grid();
  specs.resize(2);
  SweepRunner runner(SweepRunner::Options{.threads = 2});
  const std::vector<RunResult> results = runner.run(specs);
  std::ostringstream out;
  CsvResultSink sink(out);
  for (std::size_t i = 0; i < results.size(); ++i) {
    sink.on_result(i, results[i]);
  }

  const auto rows = bsld::testing::parse_csv(out.str());
  ASSERT_EQ(rows.size(), 3u);  // header + one row per spec
  EXPECT_EQ(rows[0], result_row_headers());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(rows[i + 1], result_row(i, results[i]));
  }
}

TEST(SweepRunnerTest, TableSinkCollectsInGridOrder) {
  std::vector<RunSpec> specs = small_grid();
  specs.resize(3);
  SweepRunner runner(SweepRunner::Options{.threads = 3});
  const auto results = runner.run(specs);
  // result_table() renders the given slots in the order given.
  const util::Table table = result_table(results, {0, 2});
  EXPECT_EQ(table.rows(), 2u);
  const std::string rendered = table.to_string();
  const std::size_t first = rendered.find(results[0].spec.label());
  const std::size_t last = rendered.find(results[2].spec.label());
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  EXPECT_LT(first, last);
  EXPECT_EQ(rendered.find(results[1].spec.label()), std::string::npos);
}

TEST(SweepRunnerTest, RunAllIsAThinWrapper) {
  std::vector<RunSpec> specs = small_grid();
  specs.resize(2);
  const auto wrapped = run_all(specs, 2);
  SweepRunner runner(SweepRunner::Options{.threads = 2});
  const auto direct = runner.run(specs);
  ASSERT_EQ(wrapped.size(), direct.size());
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    EXPECT_DOUBLE_EQ(wrapped[i].sim().avg_bsld, direct[i].sim().avg_bsld);
  }
}

TEST(ShardTest, PartitionIsDeterministicAndComplete) {
  const std::vector<RunSpec> specs = small_grid();
  for (const RunSpec& spec : specs) {
    const unsigned shard = shard_of(spec, 3);
    EXPECT_LT(shard, 3u);
    EXPECT_EQ(shard, shard_of(spec, 3));  // stable.
    EXPECT_EQ(shard_of(spec, 1), 0u);
  }
  EXPECT_THROW((void)shard_of(specs[0], 0), Error);
}

TEST(ShardTest, TwoShardsPartitionSlotsExactlyOnce) {
  const std::vector<RunSpec> specs = small_grid();

  std::vector<std::size_t> seen;
  std::size_t total_skipped = 0;
  for (unsigned shard = 0; shard < 2; ++shard) {
    SweepRunner::Options options;
    options.threads = 2;
    options.shard_index = shard;
    options.shard_count = 2;
    SweepRunner runner(options);
    const auto results = runner.run(specs);
    ASSERT_EQ(results.size(), specs.size());
    // Owned slots carry real results; foreign slots only their spec.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(results[i].spec, specs[i]);
      if (shard_of(specs[i], 2) == shard) {
        EXPECT_GT(results[i].sim().avg_bsld, 0.0);
        seen.push_back(i);
      } else {
        EXPECT_EQ(results[i].sim().job_count, 0);  // untouched default.
      }
    }
    EXPECT_EQ(runner.progress().completed + runner.progress().shard_skipped,
              specs.size());
    total_skipped += runner.progress().shard_skipped;
  }
  // Union over both shards: every grid slot exactly once.
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) EXPECT_EQ(seen[i], i);
  EXPECT_EQ(total_skipped, specs.size());  // each slot skipped by one shard.
}

TEST(ShardTest, ShardedUnionMatchesSerialRows) {
  // The C++-level half of the shard/merge parity criterion (the CLI end to
  // end lives in scripts/shard_smoke.sh, registered as a smoke ctest):
  // grid-ordered CSV rows of the two shards, interleaved by grid index,
  // must equal the serial run's byte for byte.
  const std::vector<RunSpec> specs = small_grid();

  const auto ordered_csv = [&](unsigned shard, unsigned count) {
    SweepRunner::Options options;
    options.threads = 2;
    options.shard_index = shard;
    options.shard_count = count;
    SweepRunner runner(options);
    const std::vector<RunResult> results = runner.run(specs);
    std::ostringstream out;
    CsvResultSink csv(out);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (shard_of(specs[i], count) == shard) csv.on_result(i, results[i]);
    }
    return bsld::testing::parse_csv(out.str());
  };

  const auto serial = ordered_csv(0, 1);
  const auto shard0 = ordered_csv(0, 2);
  const auto shard1 = ordered_csv(1, 2);
  ASSERT_EQ(serial.size(), specs.size() + 1);  // header + all rows.
  ASSERT_EQ(shard0.size() + shard1.size(), specs.size() + 2);

  // Merge by the index column (what bsldsim --merge-shards does).
  std::map<std::size_t, std::vector<std::string>> merged;
  for (const auto* shard : {&shard0, &shard1}) {
    for (std::size_t r = 1; r < shard->size(); ++r) {
      const std::size_t index = util::require_uint((*shard)[r][0], "index column");
      EXPECT_TRUE(merged.emplace(index, (*shard)[r]).second);
    }
  }
  ASSERT_EQ(merged.size(), specs.size());
  std::size_t row = 1;
  for (const auto& [index, cells] : merged) {
    EXPECT_EQ(cells, serial[row]) << "grid index " << index;
    row += 1;
  }
}

TEST(ShardTest, ShardOwningZeroSpecsYieldsEmptyResultsAndHeaderOnlyCsv) {
  // A shard whose partition holds zero specs (more shards than distinct
  // specs) is the degenerate case --merge-shards must also survive: the
  // run returns spec-only empty results, and the shard's CSV (its owned
  // slots only) is the header alone.
  std::vector<RunSpec> specs(3, small_grid()[0]);  // 1 distinct spec.
  const unsigned owner = shard_of(specs[0], 2);
  const unsigned empty_shard = 1 - owner;

  SweepRunner::Options options;
  options.threads = 2;
  options.shard_index = empty_shard;
  options.shard_count = 2;
  SweepRunner runner(options);
  const std::vector<RunResult> results = runner.run(specs);
  std::ostringstream out;
  CsvResultSink csv(out);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (shard_of(specs[i], 2) == empty_shard) csv.on_result(i, results[i]);
  }

  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].spec, specs[i]);  // spec preserved,
    EXPECT_EQ(results[i].sim().job_count, 0);  // nothing simulated.
  }
  EXPECT_EQ(runner.progress().executed, 0u);
  EXPECT_EQ(runner.progress().shard_skipped, specs.size());
  const auto rows = bsld::testing::parse_csv(out.str());
  ASSERT_EQ(rows.size(), 1u);  // the header only.
  EXPECT_EQ(rows[0][0], "index");
}

TEST(ShardTest, InvalidShardOptionsThrow) {
  SweepRunner::Options bad_index;
  bad_index.shard_index = 2;
  bad_index.shard_count = 2;
  EXPECT_THROW((void)SweepRunner(bad_index).run(small_grid()), Error);

  SweepRunner::Options zero_count;
  zero_count.shard_count = 0;
  EXPECT_THROW((void)SweepRunner(zero_count).run(small_grid()), Error);
}

// --- submit(): the persistent-pool path behind bsldsim serve ------------

TEST(SubmitTest, SubmitMatchesRun) {
  const std::vector<RunSpec> specs = small_grid();
  const std::vector<RunResult> via_run = run_all(specs, 2);

  SweepRunner runner(SweepRunner::Options{.threads = 2});
  SweepRunner::SubmitHandle handle = runner.submit(specs);
  const std::vector<RunResult> via_submit = handle.wait();

  ASSERT_EQ(via_submit.size(), via_run.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(via_submit[i].spec, specs[i]);
    EXPECT_DOUBLE_EQ(via_submit[i].sim().avg_bsld, via_run[i].sim().avg_bsld);
    EXPECT_EQ(via_submit[i].sim().events_processed,
              via_run[i].sim().events_processed);
  }
  const SweepRunner::Progress progress = handle.progress();
  EXPECT_EQ(progress.total, specs.size());
  EXPECT_EQ(progress.completed, specs.size());
  EXPECT_EQ(progress.executed, specs.size());  // all distinct, cold.
}

TEST(SubmitTest, WithinBatchDuplicatesSimulateOnce) {
  std::vector<RunSpec> specs;
  for (int repeat = 0; repeat < 3; ++repeat) {
    specs.push_back(small_grid()[0]);
    specs.push_back(small_grid()[1]);
  }
  SweepRunner runner(SweepRunner::Options{.threads = 2});
  SweepRunner::SubmitHandle handle = runner.submit(specs);
  const std::vector<RunResult> results = handle.wait();
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 2; i < specs.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].sim().avg_bsld, results[i % 2].sim().avg_bsld);
  }
  EXPECT_EQ(handle.progress().executed, 2u);
  EXPECT_EQ(handle.progress().deduplicated, 4u);
}

TEST(SubmitTest, ConcurrentBatchesShareOnePoolAndAgree) {
  const std::vector<RunSpec> specs = small_grid();
  const std::vector<RunResult> expected = run_all(specs, 2);

  SweepRunner runner(SweepRunner::Options{.threads = 3});
  constexpr int kClients = 4;
  std::vector<std::vector<RunResult>> outcomes(kClients);
  {
    std::vector<std::jthread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        outcomes[c] = runner.submit(specs).wait();
      });
    }
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(outcomes[c].size(), specs.size()) << "client " << c;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_DOUBLE_EQ(outcomes[c][i].sim().avg_bsld, expected[i].sim().avg_bsld);
      EXPECT_EQ(outcomes[c][i].spec, specs[i]);
    }
  }
}

TEST(SubmitTest, WarmBatchIsAnsweredWithoutTouchingThePool) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("bsld-submit-cache-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  {
    ResultCache cache(root);
    SweepRunner::Options options;
    options.threads = 2;
    options.cache = &cache;

    const std::vector<RunSpec> specs = small_grid();
    SweepRunner cold_runner(options);
    const std::vector<RunResult> cold = cold_runner.submit(specs).wait();

    // Fresh runner: a warm batch must resolve fully on the submitting
    // thread — zero simulations, all cache hits.
    SweepRunner warm_runner(options);
    SweepRunner::SubmitHandle handle = warm_runner.submit(specs);
    const std::vector<RunResult> warm = handle.wait();
    EXPECT_EQ(handle.progress().executed, 0u);
    EXPECT_EQ(handle.progress().cache_hits, specs.size());
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_DOUBLE_EQ(warm[i].sim().avg_bsld, cold[i].sim().avg_bsld);
      EXPECT_EQ(warm[i].sim().events_processed, cold[i].sim().events_processed);
    }
  }
  std::filesystem::remove_all(root);
}

TEST(SubmitTest, ShardedSubmitSkipsForeignSlotsSilently) {
  std::vector<RunSpec> specs(4, small_grid()[0]);  // one distinct spec.
  const unsigned owner = shard_of(specs[0], 2);
  SweepRunner::Options options;
  options.threads = 1;
  options.shard_index = 1 - owner;
  options.shard_count = 2;
  SweepRunner runner(options);

  SweepRunner::SubmitHandle handle = runner.submit(specs);
  const std::vector<RunResult> results = handle.wait();
  EXPECT_EQ(handle.progress().completed, 0u);
  EXPECT_EQ(handle.progress().shard_skipped, specs.size());
  EXPECT_EQ(handle.progress().executed, 0u);
  for (const RunResult& result : results) {
    EXPECT_EQ(result.sim().job_count, 0);
  }
}

TEST(SubmitTest, ThrowingCallbackSurfacesAtWaitNotTerminate) {
  // A progress-callback failure on a pool worker must not std::terminate
  // the process; it resurfaces when run() waits for the batch.
  SweepRunner runner(SweepRunner::Options{.threads = 2});
  std::size_t calls = 0;
  runner.on_progress([&calls](const SweepRunner::Progress&, const RunSpec&) {
    if (++calls == 2) throw Error("callback exploded");
  });
  EXPECT_THROW((void)runner.run(small_grid()), Error);
  // The pool survives and serves the next batch.
  EXPECT_EQ(runner.submit({small_grid()[0]}).wait().size(), 1u);
}

TEST(SubmitTest, SubmitAfterShutdownFailsAtWait) {
  // submit() must not throw mid-batch (queued slots would outlive the
  // caller's callback captures); a post-shutdown batch resolves as an
  // error surfaced by wait().
  SweepRunner runner(SweepRunner::Options{.threads = 1});
  (void)runner.submit({small_grid()[0]}).wait();
  runner.shutdown();
  SweepRunner::SubmitHandle handle = runner.submit({small_grid()[0]});
  EXPECT_THROW((void)handle.wait(), Error);
}

TEST(FiguresTest, PaperGridsHaveExpectedShapes) {
  EXPECT_EQ(paper_bsld_thresholds().size(), 3u);
  EXPECT_EQ(paper_wq_thresholds().size(), 4u);
  EXPECT_EQ(paper_size_scales().size(), 7u);
  EXPECT_EQ(wq_label(std::nullopt), "NO");
  EXPECT_EQ(wq_label(std::int64_t{16}), "16");

  const OriginalSizeGrid original = original_size_grid(100);
  EXPECT_EQ(original.dvfs_specs.size(), 5u * 3u * 4u);
  EXPECT_EQ(original.baseline_specs.size(), 5u);

  const EnlargedGrid enlarged = enlarged_grid(std::nullopt, 100);
  EXPECT_EQ(enlarged.dvfs_specs.size(), 5u * 7u);
  for (const RunSpec& spec : enlarged.dvfs_specs) {
    ASSERT_TRUE(spec.policy.dvfs.has_value());
    EXPECT_DOUBLE_EQ(spec.policy.dvfs->bsld_threshold, 2.0);
    EXPECT_FALSE(spec.policy.dvfs->wq_threshold.has_value());
  }
}

TEST(FiguresTest, RunGridSplitsAndBaselineLookupWorks) {
  const OriginalSizeGrid grid = original_size_grid(200);
  // Only a slice, to keep the test quick: two archives' worth.
  std::vector<RunSpec> dvfs(grid.dvfs_specs.begin(),
                            grid.dvfs_specs.begin() + 4);
  std::vector<RunSpec> baselines(grid.baseline_specs.begin(),
                                 grid.baseline_specs.begin() + 1);
  const GridResults results = run_grid(dvfs, baselines, 4);
  EXPECT_EQ(results.dvfs.size(), 4u);
  EXPECT_EQ(results.baselines.size(), 1u);
  EXPECT_EQ(baseline_for(results, wl::Archive::kCTC).spec.workload.archive,
            wl::Archive::kCTC);
  EXPECT_THROW((void)baseline_for(results, wl::Archive::kSDSC), Error);
}

}  // namespace
}  // namespace bsld::report
