// paper-cold: the whole §5.1 + §5.2 grid through one SweepRunner::run with
// two workers and an empty ResultCache -- what regenerating the paper costs.
// Dominated by core + cluster on the 4008- and 9216-CPU archives.

#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common.hpp"
#include "report/figures.hpp"
#include "report/result_cache.hpp"
#include "report/sweep.hpp"
#include "workload/archives.hpp"
#include "workload/source.hpp"

namespace perfbench {

namespace {

namespace report = bsld::report;
namespace wl = bsld::wl;
namespace fs = std::filesystem;

/// Set-ups per run; setup_s is their median. Each is ~20 ms, so take several.
constexpr int kSetups = 7;

constexpr unsigned kWorkers = 2;
/// Warm replays after each cold pass, from the store it filled. Spread
/// over the run, the hit samples do not all share one moment's machine
/// speed; a fixed ratio keeps req_per_s independent of how many passes fit
/// in the run; and two passes already give the 1000 hits a p99 needs.
constexpr std::size_t kReplaysPerPass = 4;

/// Digest of the canonical grid's CSV rendering: every seed renders the
/// same rows in the same order, so every run is checked against it.
constexpr const char* kGridDigest = "36ff79c747dbc2d9";

/// The paper grid: original_size_grid plus both enlarged_grids, 5000-job
/// slices of the canonical archive traces.
std::vector<report::RunSpec> build_grid() {
  std::vector<report::RunSpec> grid;
  const auto append = [&grid](const std::vector<report::RunSpec>& part) {
    grid.insert(grid.end(), part.begin(), part.end());
  };
  const report::OriginalSizeGrid original = report::original_size_grid(5000);
  append(original.dvfs_specs);
  append(original.baseline_specs);
  for (const std::optional<std::int64_t>& wq :
       {std::optional<std::int64_t>(0), std::optional<std::int64_t>()}) {
    const report::EnlargedGrid enlarged = report::enlarged_grid(wq, 5000);
    append(enlarged.dvfs_specs);
    append(enlarged.baseline_specs);
  }
  for (const report::RunSpec& spec : grid) (void)spec.key();
  return grid;
}

/// The grid as submitted to the runner: the canonical specs in an order
/// drawn from the seed (seed 0 keeps the paper's order). Regenerating the
/// paper means these exact traces, so the seed varies only the dispatch
/// order, and with it the tail of the two-worker schedule; trace variety
/// across seeds is what stream-swf and daemon-mixed's misses cover.
struct Dispatch {
  std::vector<report::RunSpec> specs;
  std::vector<std::size_t> row;  ///< specs[i] is canonical row row[i].
};

Dispatch dispatch(const std::vector<report::RunSpec>& grid,
                  std::uint64_t seed) {
  Dispatch d;
  d.row.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) d.row[i] = i;
  if (seed != 0) {
    for (std::size_t i = grid.size() - 1; i > 0; --i) {
      std::swap(d.row[i], d.row[derive_seed(seed, i) % (i + 1)]);
    }
  }
  for (const std::size_t r : d.row) d.specs.push_back(grid[r]);
  return d;
}

/// Results back in canonical row order, labelled with the plain specs
/// (traced specs carry wrapper names).
std::vector<report::RunResult> canonical(
    std::vector<report::RunResult> results, const Dispatch& d,
    const std::vector<report::RunSpec>& grid) {
  std::vector<report::RunResult> rows(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    rows[d.row[i]] = std::move(results[i]);
    rows[d.row[i]].spec = grid[d.row[i]];
  }
  return rows;
}

/// One run of the grid through the runner, in canonical row order.
struct Pass {
  double wall_s = 0.0;
  std::string csv;
  std::int64_t jobs = 0;
  report::SweepRunner::Progress progress;
  report::ResultCache::Counters cache;
  std::vector<report::RunResult> results;
};

/// Spec times, measured from the progress callback: on each thread that
/// completes specs (a worker, or the submitting thread for cache hits), one
/// spec spans from the previous completion (or the pass start) to its own.
class SpecTimer {
 public:
  void start() { start_ = trace::Clock::now(); last_.clear(); }
  void on_done(const report::RunSpec& spec) {
    const trace::Clock::time_point now = trace::Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it =
        last_.try_emplace(std::this_thread::get_id(), start_).first;
    trace::record(trace::Kind::kSpec, it->second, now);
    const double ms = seconds_between(it->second, now) * 1e3;
    by_archive_[wl::archive_name(spec.workload.archive)].push_back(ms);
    all_ms_.push_back(ms);
    busy_s_ += ms / 1e3;
    it->second = now;
  }
  const std::map<std::string, std::vector<double>>& by_archive() const {
    return by_archive_;
  }
  const std::vector<double>& all_ms() const { return all_ms_; }
  double busy_s() const { return busy_s_; }

 private:
  std::mutex mutex_;
  trace::Clock::time_point start_;
  std::map<std::thread::id, trace::Clock::time_point> last_;
  std::map<std::string, std::vector<double>> by_archive_;
  std::vector<double> all_ms_;
  double busy_s_ = 0.0;
};

/// One SweepRunner::run of `d` against `cache`, with per-spec times going
/// to `timer`; the results come back in canonical row order, rendered.
Pass serve(const Dispatch& d, const std::vector<report::RunSpec>& grid,
           report::ResultCache& cache, SpecTimer& timer) {
  report::SweepRunner::Options options;
  options.threads = kWorkers;
  options.cache = &cache;
  report::SweepRunner runner(options);
  runner.on_progress([&timer](const report::SweepRunner::Progress&,
                              const report::RunSpec& spec) {
    timer.on_done(spec);
  });
  Pass pass;
  timer.start();
  const Clock::time_point t0 = Clock::now();
  pass.results = canonical(runner.run(d.specs), d, grid);
  {
    const trace::Span span(trace::Kind::kRender);
    pass.csv = render_csv(pass.results);
  }
  pass.wall_s = seconds_since(t0);
  pass.progress = runner.progress();
  return pass;
}

/// A cold pass: the grid against an empty store.
Pass run_pass(const Dispatch& d, const std::vector<report::RunSpec>& grid,
              const fs::path& cache_dir, SpecTimer& timer) {
  fs::remove_all(cache_dir);
  report::ResultCache cache(cache_dir);
  Pass pass = serve(d, grid, cache, timer);
  pass.cache = cache.counters();
  std::set<std::string> seen;
  for (const report::RunResult& result : pass.results) {
    if (seen.insert(result.spec.key()).second) {
      pass.jobs += result.sim().job_count;
    }
  }
  return pass;
}

/// Replays `d` `count` times from the store the last cold pass filled;
/// every replay must render the paper grid without executing anything.
/// Returns the replays' total wall seconds.
double warm_replays(const Dispatch& d, const std::vector<report::RunSpec>& grid,
                    const fs::path& cache_dir, std::size_t count,
                    SpecTimer& timer, Outcome& outcome) {
  report::ResultCache cache(cache_dir);
  double wall_s = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const Pass replay = serve(d, grid, cache, timer);
    wall_s += replay.wall_s;
    outcome.attempted += static_cast<std::int64_t>(grid.size());
    if (digest(replay.csv) != kGridDigest || replay.progress.executed != 0) {
      note("paper-cold: warm replay differs from the cold passes");
      outcome.failed += static_cast<std::int64_t>(grid.size());
    }
  }
  return wall_s;
}

/// Direct probes of the cache seam on one pass's results: a store and a
/// lookup of every distinct spec against a fresh store.
void probe_cache(const Pass& pass, const fs::path& dir) {
  fs::remove_all(dir);
  report::ResultCache cache(dir);
  std::set<std::string> seen;
  for (const report::RunResult& result : pass.results) {
    if (!seen.insert(result.spec.key()).second) continue;
    const trace::Span span(trace::Kind::kCacheStore);
    cache.store(result);
  }
  for (const report::RunResult& result : pass.results) {
    const trace::Span span(trace::Kind::kCacheLookup);
    (void)cache.lookup(result.spec);
  }
  fs::remove_all(dir);
}

}  // namespace

int paper_cold(const Args& args, Outcome& outcome) {
  const fs::path dir = fs::path(args.workdir) / "paper-cold";
  std::vector<report::RunSpec> grid;
  Dispatch plain;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    grid = build_grid();
    plain = dispatch(grid, args.seed);
    // Generating each archive's trace once warms the generator the
    // passes then run inside every spec.
    for (const wl::Archive archive : wl::all_archives()) {
      (void)wl::load_source(wl::WorkloadSource::from_archive(archive, 5000));
    }
    setups.push_back(seconds_since(t0));
  }
  std::set<std::string> distinct;
  for (const report::RunSpec& spec : grid) distinct.insert(spec.key());
  note("paper-cold: " + std::to_string(grid.size()) + " grid slots, " +
       std::to_string(distinct.size()) + " distinct specs, 5000 jobs each, " +
       std::to_string(kWorkers) + " workers");

  std::vector<Pass> passes;
  const auto pass_over = [&](const Dispatch& d, SpecTimer& timer) {
    // Only the last pass's results stay resident.
    if (!passes.empty()) passes.back().results.clear();
    passes.push_back(run_pass(d, grid, dir / "cache", timer));
  };
  SpecTimer cold;
  const auto plain_pass = [&] { pass_over(plain, cold); };

  if (!args.trace) {
    reset_peak_rss();
    SpecTimer warm;
    double warm_s = 0.0;
    (void)repeat_for(args.seconds, [&] {
      plain_pass();
      warm_s += warm_replays(plain, grid, dir / "cache", kReplaysPerPass,
                             warm, outcome);
    });
    const double rss = peak_rss_mb();
    std::vector<double> walls;
    double jobs = 0.0;
    for (const Pass& pass : passes) {
      walls.push_back(pass.wall_s);
      jobs += static_cast<double>(pass.jobs);
    }
    double cold_s = 0.0;
    for (const double w : walls) cold_s += w;
    outcome.add("setup_s", median(setups), "s");
    outcome.add("wall_s", median(walls), "s");
    outcome.add("jobs_per_s", jobs / cold_s, "1/s");
    outcome.add("peak_rss_mb", rss, "MiB");
    add_request_metrics(outcome, warm.all_ms(), cold.all_ms(),
                        cold_s + warm_s);
    note("paper-cold: " + std::to_string(walls.size()) + " cold passes, " +
         std::to_string(warm.all_ms().size() / distinct.size()) +
         " warm replays");
  } else {
    trace::register_wrappers();
    const std::vector<double> untraced =
        repeat_for(args.seconds / 2.0, plain_pass);
    Dispatch traced_dispatch = plain;
    for (report::RunSpec& spec : traced_dispatch.specs) {
      spec = trace::traced(spec);
    }
    trace::reset();
    SpecTimer timer;
    const std::vector<double> traced = repeat_for(
        args.seconds / 2.0, [&] { pass_over(traced_dispatch, timer); });
    const auto ops = static_cast<double>(traced.size());
    {
      const trace::Span span(trace::Kind::kExpand);
      (void)build_grid();
    }
    probe_cache(passes.back(), dir / "probe");
    add_span_metrics(outcome, ops);
    for (const auto& [archive, ms] : timer.by_archive()) {
      outcome.add("report.spec_ms." + archive, median(ms), "ms");
    }
    double traced_wall = 0.0;
    for (const double w : traced) traced_wall += w;
    outcome.add("report.worker_busy_ratio",
                timer.busy_s() / (kWorkers * traced_wall), "ratio");
    const Pass& last = passes.back();
    std::int64_t peak_live = 0;
    for (const report::RunResult& r : last.results) {
      peak_live = std::max(peak_live, r.sim().peak_live_jobs);
    }
    outcome.add("sim.peak_live_jobs", static_cast<double>(peak_live), "count");
    outcome.add("report.cache_stores", static_cast<double>(last.cache.stores),
                "count");
    const double lookups =
        static_cast<double>(last.cache.hits + last.cache.misses);
    outcome.add("report.cache_lookups", lookups, "count");
    outcome.add("report.cache_hit_ratio",
                lookups == 0.0 ? 0.0 : last.cache.hits / lookups, "ratio");
    add_overhead(outcome, median(untraced), median(traced));
    dump_trace(args);
    // One replay of the traced store checks the warm path here too.
    SpecTimer warm;
    (void)warm_replays(traced_dispatch, grid, dir / "cache", 1, warm, outcome);
  }

  // Output checks: every cold pass rendered the paper grid and executed
  // each distinct spec once (each warm replay was checked as it ran).
  for (const Pass& pass : passes) {
    outcome.attempted += static_cast<std::int64_t>(grid.size());
    if (digest(pass.csv) != kGridDigest ||
        pass.progress.executed != distinct.size()) {
      note("paper-cold: cold pass rendered " + digest(pass.csv) +
           ", expected " + kGridDigest);
      outcome.failed += static_cast<std::int64_t>(grid.size());
    }
  }
  fs::remove_all(dir);
  return 0;
}

}  // namespace perfbench
