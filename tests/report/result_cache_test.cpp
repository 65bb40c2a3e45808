#include "report/result_cache.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "report/sinks.hpp"
#include "report/sweep.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace bsld::report {
namespace {

namespace fs = std::filesystem;

RunSpec small_spec(double bsld_threshold = 2.0) {
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kCTC, 150);
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = bsld_threshold;
  dvfs.wq_threshold = 4;
  spec.policy.dvfs = dvfs;
  return spec;
}

void expect_same_sim(const sim::SimulationResult& a,
                     const sim::SimulationResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.cpus, b.cpus);
  EXPECT_EQ(a.job_count, b.job_count);
  EXPECT_EQ(a.avg_bsld, b.avg_bsld);  // bitwise: entries round-trip doubles.
  EXPECT_EQ(a.avg_wait, b.avg_wait);
  EXPECT_EQ(a.reduced_jobs, b.reduced_jobs);
  EXPECT_EQ(a.boosted_jobs, b.boosted_jobs);
  EXPECT_EQ(a.jobs_per_gear, b.jobs_per_gear);
  EXPECT_EQ(a.energy.computational_joules, b.energy.computational_joules);
  EXPECT_EQ(a.energy.total_joules, b.energy.total_joules);
  EXPECT_EQ(a.energy.idle_joules, b.energy.idle_joules);
  EXPECT_EQ(a.energy.busy_core_seconds, b.energy.busy_core_seconds);
  EXPECT_EQ(a.energy.idle_core_seconds, b.energy.idle_core_seconds);
  EXPECT_EQ(a.energy.sleep_core_seconds, b.energy.sleep_core_seconds);
  EXPECT_EQ(a.energy.sleep_joules, b.energy.sleep_joules);
  EXPECT_EQ(a.energy.horizon, b.energy.horizon);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.peak_live_jobs, b.peak_live_jobs);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);
    EXPECT_EQ(a.jobs[i].start, b.jobs[i].start);
    EXPECT_EQ(a.jobs[i].end, b.jobs[i].end);
    EXPECT_EQ(a.jobs[i].gear, b.jobs[i].gear);
    EXPECT_EQ(a.jobs[i].final_gear, b.jobs[i].final_gear);
    EXPECT_EQ(a.jobs[i].boosted, b.jobs[i].boosted);
    EXPECT_EQ(a.jobs[i].bsld, b.jobs[i].bsld);
  }
}

std::string rendered_csv(const sim::Instrument& instrument) {
  std::ostringstream out;
  instrument.write_csv(out);
  return out.str();
}

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("bsld-cache-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(ResultCacheTest, LookupOnEmptyCacheMisses) {
  ResultCache cache(root_);
  EXPECT_FALSE(cache.lookup(small_spec()).has_value());
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.counters().hits, 0u);
}

TEST_F(ResultCacheTest, StoreLookupRoundTripsEverything) {
  RunSpec spec = small_spec();
  spec.instruments = {"wait-trace", "utilization"};
  const RunResult fresh = run_one(spec);

  ResultCache cache(root_);
  cache.store(fresh);
  const auto cached = cache.lookup(spec);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->spec, spec);
  expect_same_sim(fresh.sim(), cached->sim());

  // Instruments replay byte-identically (name, rows, rendered CSV)...
  ASSERT_EQ(cached->instruments.size(), fresh.instruments.size());
  for (std::size_t i = 0; i < fresh.instruments.size(); ++i) {
    EXPECT_EQ(cached->instruments[i]->name(), fresh.instruments[i]->name());
    EXPECT_EQ(cached->instruments[i]->rows(), fresh.instruments[i]->rows());
    EXPECT_EQ(rendered_csv(*cached->instruments[i]),
              rendered_csv(*fresh.instruments[i]));
  }
  // ...through the name lookup too, while typed access says "replayed".
  EXPECT_NE(cached->instrument("wait-trace"), nullptr);
  EXPECT_EQ(instrument_as<sim::WaitQueueTrace>(*cached, "wait-trace"),
            nullptr);
  EXPECT_NE(dynamic_cast<const CachedInstrument*>(
                cached->instrument("wait-trace")),
            nullptr);

  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.counters().stores, 1u);
}

TEST_F(ResultCacheTest, RetainJobsOffRoundTripsWithoutJobs) {
  RunSpec spec = small_spec();
  spec.retain_jobs = false;
  const RunResult fresh = run_one(spec);
  ASSERT_TRUE(fresh.sim().jobs.empty());

  ResultCache cache(root_);
  cache.store(fresh);
  const auto cached = cache.lookup(spec);
  ASSERT_TRUE(cached.has_value());
  EXPECT_TRUE(cached->sim().jobs.empty());
  expect_same_sim(fresh.sim(), cached->sim());

  // The retained variant is a different run identity: no false sharing.
  RunSpec retained = small_spec();
  EXPECT_FALSE(cache.lookup(retained).has_value());
}

TEST_F(ResultCacheTest, PowerManagedRunsRoundTripWithTheirSleepEnergy) {
  // A sleep-managed run populates the sleep energy fields; the cache
  // entry must replay them bit-for-bit (expect_same_sim covers them), and
  // the managed spec's key must differ from the unmanaged one's.
  RunSpec spec = small_spec();
  spec.pm.name = "sleep";
  const RunResult fresh = run_one(spec);
  EXPECT_GT(fresh.sim().energy.sleep_core_seconds, 0.0);

  ResultCache cache(root_);
  cache.store(fresh);
  const auto cached = cache.lookup(spec);
  ASSERT_TRUE(cached.has_value());
  expect_same_sim(fresh.sim(), cached->sim());
  EXPECT_NE(spec.key(), small_spec().key());
  EXPECT_FALSE(cache.lookup(small_spec()).has_value());
}

TEST_F(ResultCacheTest, SleepLaddersAreDistinctRunIdentities) {
  // The C-state ladder changes a sleep-managed run's numbers, so it is part
  // of the key: a run stored under one ladder is never served for another
  // ladder, nor for the default ladder (no power.sleep.* keys).
  const auto with_ladder = [](std::vector<power::SleepState> ladder) {
    RunSpec spec = small_spec();
    spec.pm.name = "sleep";
    spec.power.sleep_states = std::move(ladder);
    return spec;
  };
  const RunSpec a = with_ladder({{10.0, 60, 1}, {2.0, 600, 30}});
  const RunSpec c = with_ladder({{5.0, 1200, 20}, {1.0, 12000, 300}});
  const RunSpec none = with_ladder({});
  const RunResult fresh = run_one(a);

  ResultCache cache(root_);
  cache.store(fresh);
  EXPECT_FALSE(cache.lookup(c).has_value());
  EXPECT_FALSE(cache.lookup(none).has_value());
  const auto cached = cache.lookup(a);
  ASSERT_TRUE(cached.has_value());
  expect_same_sim(fresh.sim(), cached->sim());
  EXPECT_EQ(cache.counters().misses, 2u);
  EXPECT_EQ(cache.counters().corrupt, 0u);
}

TEST_F(ResultCacheTest, PeakLiveJobsRoundTripsAndItsAbsenceIsAMiss) {
  const RunSpec spec = small_spec();
  const RunResult fresh = run_one(spec);
  ASSERT_GT(fresh.sim().peak_live_jobs, 0);

  ResultCache cache(root_);
  cache.store(fresh);
  const auto cached = cache.lookup(spec);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->sim().peak_live_jobs, fresh.sim().peak_live_jobs);

  // An entry without the key is unreadable, not a peak of 0.
  const fs::path path = cache.entry_path(spec);
  std::string bytes = util::read_file_bytes(path).value();
  const std::string line =
      "peak_live_jobs = " + std::to_string(fresh.sim().peak_live_jobs) + "\n";
  const std::size_t at = bytes.find(line);
  ASSERT_NE(at, std::string::npos) << bytes.substr(0, 2000);
  bytes.erase(at, line.size());
  util::atomic_write_file(path, bytes);
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache.counters().corrupt, 1u);
}

TEST_F(ResultCacheTest, TruncatedEntryIsCorruptMissAndRecovers) {
  const RunSpec spec = small_spec();
  ResultCache cache(root_);
  cache.store(run_one(spec));

  const fs::path path = cache.entry_path(spec);
  const std::string bytes = util::read_file_bytes(path).value();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache.counters().corrupt, 1u);
  EXPECT_FALSE(fs::exists(path));  // dropped: the slot is clean again.

  // Recompute-and-rewrite restores service.
  cache.store(run_one(spec));
  EXPECT_TRUE(cache.lookup(spec).has_value());
}

TEST_F(ResultCacheTest, GarbageEntryIsCorruptMiss) {
  const RunSpec spec = small_spec();
  ResultCache cache(root_);
  cache.store(run_one(spec));
  util::atomic_write_file(cache.entry_path(spec), "not a cache entry\n");
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache.counters().corrupt, 1u);
}

TEST_F(ResultCacheTest, WrongEpochEntryIsMiss) {
  const RunSpec spec = small_spec();
  ResultCache cache(root_);
  cache.store(run_one(spec));

  const fs::path path = cache.entry_path(spec);
  std::string bytes = util::read_file_bytes(path).value();
  const std::string current = "bsldsim-cache epoch=" +
                              std::to_string(ResultCache::kSchemaEpoch);
  ASSERT_EQ(bytes.rfind(current, 0), 0u);
  bytes.replace(0, current.size(), "bsldsim-cache epoch=999");
  util::atomic_write_file(path, bytes);

  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache.counters().corrupt, 1u);
}

TEST_F(ResultCacheTest, ForeignSpecKeyInEntryIsPlainMiss) {
  // A structurally valid entry whose embedded key belongs to another spec
  // models a 64-bit hash collision: it must read as a miss (recompute),
  // not as corruption, and must not be deleted.
  const RunSpec spec_a = small_spec(2.0);
  const RunSpec spec_b = small_spec(3.0);
  ResultCache cache(root_);
  cache.store(run_one(spec_a));

  const std::string bytes =
      util::read_file_bytes(cache.entry_path(spec_a)).value();
  util::atomic_write_file(cache.entry_path(spec_b), bytes);

  EXPECT_FALSE(cache.lookup(spec_b).has_value());
  EXPECT_EQ(cache.counters().corrupt, 0u);
  EXPECT_TRUE(fs::exists(cache.entry_path(spec_b)));
}

TEST_F(ResultCacheTest, UncacheableInstrumentNameFailsTheStoreLoudly) {
  // A name the section parser could not read back must be rejected at
  // store time — writing it would make every future lookup a corrupt miss
  // (permanent re-simulate/re-store loop).
  RunResult result = run_one(small_spec());
  result.instruments.push_back(
      std::make_shared<CachedInstrument>("bad name", 0, ""));
  ResultCache cache(root_);
  EXPECT_THROW(cache.store(result), Error);
  EXPECT_FALSE(fs::exists(cache.entry_path(result.spec)));
}

TEST_F(ResultCacheTest, ConcurrentWritersLeaveAReadableEntry) {
  const RunSpec spec = small_spec();
  const RunResult result = run_one(spec);
  ResultCache cache(root_);

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 8; ++i) cache.store(result);
    });
  }
  for (std::thread& writer : writers) writer.join();

  const auto cached = cache.lookup(spec);
  ASSERT_TRUE(cached.has_value());
  expect_same_sim(result.sim(), cached->sim());
  EXPECT_EQ(cache.disk_stats().entries, 1u);
}

TEST_F(ResultCacheTest, DiskStatsAndClear) {
  ResultCache cache(root_);
  cache.store(run_one(small_spec(1.5)));
  cache.store(run_one(small_spec(2.0)));
  cache.store(run_one(small_spec(3.0)));

  const ResultCache::DiskStats stats = cache.disk_stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.stale_entries, 0u);

  EXPECT_EQ(cache.clear(), 3u);
  EXPECT_EQ(cache.disk_stats().entries, 0u);
  EXPECT_FALSE(cache.lookup(small_spec(1.5)).has_value());
}

TEST_F(ResultCacheTest, EvictStaleEpochs) {
  ResultCache cache(root_);
  cache.store(run_one(small_spec()));

  // An entry left behind by a (hypothetical) older binary.
  const fs::path stale = root_ / "v0" / "ab" / "abababababababab.entry";
  util::atomic_write_file(stale, "old format\n");
  EXPECT_EQ(cache.disk_stats().stale_entries, 1u);

  // clear() reclaims every epoch: the current entry and the stale one.
  EXPECT_EQ(cache.clear(), 2u);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_EQ(cache.disk_stats().entries, 0u);
  EXPECT_EQ(cache.disk_stats().stale_entries, 0u);
}

TEST_F(ResultCacheTest, TrimEvictsOldestFirst) {
  ResultCache cache(root_);
  const RunSpec old_spec = small_spec(1.5);
  const RunSpec new_spec = small_spec(3.0);
  cache.store(run_one(old_spec));
  cache.store(run_one(new_spec));
  // Make the eviction order explicit instead of relying on write timing.
  fs::last_write_time(cache.entry_path(old_spec),
                      fs::last_write_time(cache.entry_path(new_spec)) -
                          std::chrono::hours(1));

  const std::uintmax_t newer_size = fs::file_size(cache.entry_path(new_spec));
  EXPECT_EQ(cache.trim(newer_size), 1u);
  EXPECT_FALSE(cache.lookup(old_spec).has_value());
  EXPECT_TRUE(cache.lookup(new_spec).has_value());

  EXPECT_EQ(cache.trim(0), 1u);  // evict everything.
  EXPECT_EQ(cache.disk_stats().entries, 0u);
}

TEST_F(ResultCacheTest, TrimSkipsEntryRepublishedUnderItsLock) {
  // The trim/store race: trim() scans, then a concurrent writer
  // republishes the entry (tmp+rename), then trim unlinks it — deleting a
  // fresh result between its publish and first read. Fixed by taking the
  // entry's FileLock sidecar and re-checking the write time before the
  // unlink. This test forces the interleaving: a helper thread holds the
  // entry's lock before trim() starts, republishes the entry while trim
  // is blocked on that lock, and only then releases — the republished
  // entry must survive a trim(0) that would otherwise delete everything.
  const RunSpec spec = small_spec();
  const RunResult result = run_one(spec);
  ResultCache cache(root_);
  cache.store(result);
  const fs::path entry = cache.entry_path(spec);
  const std::string bytes = util::read_file_bytes(entry).value();
  // Make the scanned mtime old so the republish below visibly changes it.
  fs::last_write_time(entry,
                      fs::last_write_time(entry) - std::chrono::hours(2));

  std::promise<void> lock_held;
  std::thread writer([&] {
    fs::path lock_path = entry;
    lock_path += ".lock";
    const util::FileLock lock(lock_path);
    lock_held.set_value();
    // Give trim() ample time to finish its scan and block on our lock,
    // then republish (fresh mtime) and release.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    util::atomic_write_file(entry, bytes);
  });
  lock_held.get_future().wait();

  EXPECT_EQ(cache.trim(0), 0u);  // blocked, re-checked, skipped.
  writer.join();
  EXPECT_TRUE(fs::exists(entry));
  EXPECT_TRUE(cache.lookup(spec).has_value());
}

TEST_F(ResultCacheTest, TwoProcessTrimVsStoreStress) {
  // Cross-process variant: a child hammers store() while the parent
  // hammers trim(0). The FileLock sidecar serializes them, so whatever
  // interleaving happens, the store stays structurally sound, no process
  // crashes, and a final store/lookup round-trips.
  const RunSpec spec = small_spec();
  const RunResult result = run_one(spec);
  ResultCache cache(root_);
  cache.store(result);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: republish the entry in a tight loop, then exit cleanly.
    // _exit (not exit) keeps gtest's atexit machinery out of the child.
    try {
      ResultCache mine(root_);
      for (int i = 0; i < 200; ++i) mine.store(result);
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(0);
  }
  for (int i = 0; i < 200; ++i) (void)cache.trim(0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  cache.store(result);
  const auto final_lookup = cache.lookup(spec);
  ASSERT_TRUE(final_lookup.has_value());
  expect_same_sim(result.sim(), final_lookup->sim());
}

TEST_F(ResultCacheTest, AbsorbCopiesMissingEntries) {
  const fs::path other_root = root_ / "other";
  ResultCache mine(root_ / "mine");
  ResultCache other(other_root);

  mine.store(run_one(small_spec(1.5)));
  other.store(run_one(small_spec(2.0)));
  other.store(run_one(small_spec(3.0)));

  EXPECT_EQ(mine.absorb(other_root), 2u);
  EXPECT_EQ(mine.disk_stats().entries, 3u);
  EXPECT_TRUE(mine.lookup(small_spec(2.0)).has_value());
  EXPECT_TRUE(mine.lookup(small_spec(3.0)).has_value());
  EXPECT_EQ(mine.absorb(other_root), 0u);  // idempotent.
}

// --- SweepRunner integration: the acceptance criterion -------------------

std::vector<RunSpec> acceptance_grid() {
  // 2 archives x 3 BSLD x 4 WQ x 5 scales = 120 distinct specs on short
  // traces: the "100+ spec grid" of the PR's acceptance criteria.
  std::vector<RunSpec> specs;
  for (const wl::Archive archive : {wl::Archive::kCTC, wl::Archive::kSDSC}) {
    for (const double threshold : {1.5, 2.0, 3.0}) {
      for (const std::optional<std::int64_t> wq :
           std::vector<std::optional<std::int64_t>>{0, 4, 16, std::nullopt}) {
        for (const double scale : {1.0, 1.1, 1.2, 1.5, 2.0}) {
          RunSpec spec;
          spec.workload = wl::WorkloadSource::from_archive(archive, 120);
          core::DvfsConfig dvfs;
          dvfs.bsld_threshold = threshold;
          dvfs.wq_threshold = wq;
          spec.policy.dvfs = dvfs;
          spec.size_scale = scale;
          specs.push_back(spec);
        }
      }
    }
  }
  return specs;
}

struct SweepCapture {
  std::string csv;
  std::string jsonl;
  SweepRunner::Progress progress;
};

SweepCapture run_grid_with_cache(const std::vector<RunSpec>& specs,
                                 ResultCache& cache) {
  SweepRunner::Options options;
  options.threads = 4;
  options.cache = &cache;
  SweepRunner runner(options);
  const std::vector<RunResult> results = runner.run(specs);
  std::ostringstream csv_out;
  std::ostringstream jsonl_out;
  CsvResultSink csv(csv_out);
  JsonlResultSink jsonl(jsonl_out);
  for (std::size_t i = 0; i < results.size(); ++i) {
    csv.on_result(i, results[i]);
    jsonl.on_result(i, results[i]);
  }
  return {csv_out.str(), jsonl_out.str(), runner.progress()};
}

TEST_F(ResultCacheTest, RepeatedSweepOver100SpecGridIsAllHitsByteIdentical) {
  const std::vector<RunSpec> specs = acceptance_grid();
  ASSERT_GE(specs.size(), 100u);
  ResultCache cache(root_);

  const SweepCapture cold = run_grid_with_cache(specs, cache);
  EXPECT_EQ(cold.progress.executed, specs.size());
  EXPECT_EQ(cold.progress.cache_hits, 0u);

  const SweepCapture warm = run_grid_with_cache(specs, cache);
  EXPECT_EQ(warm.progress.executed, 0u);             // nothing simulated,
  EXPECT_EQ(warm.progress.cache_hits, specs.size()); // 100% cache hits,
  EXPECT_EQ(warm.progress.completed, specs.size());
  EXPECT_EQ(warm.csv, cold.csv);                     // byte-identical CSV,
  EXPECT_EQ(warm.jsonl, cold.jsonl);                 // and JSONL.
}

TEST_F(ResultCacheTest, SweepRunnerStoresThroughCacheAndDedups) {
  // Duplicated grid: dedup executes each distinct spec once, the cache
  // turns the second sweep into pure replay, and results keep fanning out
  // to every duplicate slot.
  std::vector<RunSpec> specs;
  for (int repeat = 0; repeat < 3; ++repeat) {
    specs.push_back(small_spec(1.5));
    specs.push_back(small_spec(2.0));
  }
  ResultCache cache(root_);
  SweepRunner::Options options;
  options.threads = 2;
  options.cache = &cache;

  SweepRunner cold(options);
  const auto cold_results = cold.run(specs);
  EXPECT_EQ(cold.progress().executed, 2u);
  EXPECT_EQ(cold.progress().deduplicated, 4u);
  EXPECT_EQ(cache.counters().stores, 2u);

  SweepRunner warm(options);
  const auto warm_results = warm.run(specs);
  EXPECT_EQ(warm.progress().executed, 0u);
  EXPECT_EQ(warm.progress().cache_hits, 2u);
  EXPECT_EQ(warm.progress().completed, specs.size());
  ASSERT_EQ(warm_results.size(), cold_results.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(warm_results[i].spec, specs[i]);
    expect_same_sim(cold_results[i].sim(), warm_results[i].sim());
  }
}

}  // namespace
}  // namespace bsld::report
