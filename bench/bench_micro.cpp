/// \file bench_micro.cpp
/// \brief google-benchmark microbenchmarks of the simulation substrate:
/// event-engine throughput, allocation search, machine + selector churn,
/// trace generation, end-to-end simulation rate per archive, sweep-grid
/// throughput through report::SweepRunner (deduplicated grid), and the
/// streaming pipeline (pull-path ingest rate, SWF file ingest and the
/// million-job windowed run).
#include <benchmark/benchmark.h>

#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <unistd.h>

#include "cluster/first_fit.hpp"
#include "report/result_cache.hpp"
#include "report/sweep.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/source.hpp"
#include "workload/stream.hpp"
#include "workload/swf.hpp"
#include "workload/synthetic.hpp"

using namespace bsld;

namespace {

void BM_EngineScheduleDrain(benchmark::State& state) {
  const auto events = static_cast<std::int64_t>(state.range(0));
  util::Rng rng(42);
  for (auto _ : state) {
    sim::Engine engine;
    for (std::int64_t i = 0; i < events; ++i) {
      engine.schedule(sim::Event{rng.uniform_int(0, 1'000'000),
                                 sim::EventKind::kJobSubmit, 0, i});
    }
    while (auto event = engine.pop()) benchmark::DoNotOptimize(*event);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EngineScheduleDrain)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_EarliestStart(benchmark::State& state) {
  const auto cpus = static_cast<std::int32_t>(state.range(0));
  cluster::Machine machine(cpus);
  util::Rng rng(7);
  // Fill ~2/3 of the machine with fake jobs of staggered expected ends.
  std::vector<CpuId> cpu_list;
  for (CpuId c = 0; c < cpus * 2 / 3; ++c) cpu_list.push_back(c);
  for (CpuId c : cpu_list) {
    machine.assign(c + 1, {c}, rng.uniform_int(100, 100000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.earliest_start(cpus / 2, 50));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EarliestStart)->Arg(430)->Arg(1152)->Arg(9216);

/// The machine + selector layer as EASY drives it: per iteration, a First
/// Fit start of cpus/8 CPUs, the reservation mask for a head of half the
/// machine and the release of the oldest running job, on a machine kept
/// 3/4 to 7/8 busy with staggered expected ends.
void BM_MachineChurn(benchmark::State& state) {
  const auto cpus = static_cast<std::int32_t>(state.range(0));
  const std::int32_t size = cpus / 8;
  cluster::Machine machine(cpus);
  const cluster::FirstFit fit;
  util::Rng rng(11);
  std::deque<std::pair<JobId, CpuId>> running;  // oldest first
  std::vector<CpuId> list;
  std::vector<std::uint64_t> mask;
  JobId next = 1;
  Time now = 0;
  const auto start = [&] {
    if (!fit.select_now(machine, size, now, nullptr, list)) {
      state.SkipWithError("no free CPUs");
      return;
    }
    machine.assign(next, list, now + rng.uniform_int(100, 10'000));
    running.emplace_back(next++, list.front());
  };
  for (int i = 0; i < 6; ++i) start();
  for (auto _ : state) {
    start();
    fit.reserve(machine, cpus / 2, machine.earliest_start(cpus / 2, now), now,
                mask);
    benchmark::DoNotOptimize(mask.data());
    benchmark::ClobberMemory();
    machine.release(running.front().first, running.front().second);
    running.pop_front();
    now += 10;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineChurn)->Arg(430)->Arg(9216);

void BM_GenerateTrace(benchmark::State& state) {
  const auto archive = static_cast<wl::Archive>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wl::load_source(wl::WorkloadSource::from_archive(archive)));
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_GenerateTrace)
    ->Arg(static_cast<int>(wl::Archive::kCTC))
    ->Arg(static_cast<int>(wl::Archive::kLLNLAtlas));

void BM_SimulateArchive(benchmark::State& state) {
  const auto archive = static_cast<wl::Archive>(state.range(0));
  report::RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(archive);
  core::DvfsConfig config;
  config.bsld_threshold = 2.0;
  config.wq_threshold = 16;
  spec.policy.dvfs = config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(report::run_one(spec));
  }
  state.SetItemsProcessed(state.iterations() * 5000);  // jobs per run
}
BENCHMARK(BM_SimulateArchive)
    ->Arg(static_cast<int>(wl::Archive::kCTC))
    ->Arg(static_cast<int>(wl::Archive::kSDSC))
    ->Arg(static_cast<int>(wl::Archive::kSDSCBlue))
    ->Arg(static_cast<int>(wl::Archive::kLLNLThunder))
    ->Arg(static_cast<int>(wl::Archive::kLLNLAtlas))
    ->Unit(benchmark::kMillisecond);

/// Power-management cost on the headline simulation: Arg(0) runs the CTC
/// DVFS case with the default pm=none spec — guarded so the pm hook in
/// the simulation loop stays free when no manager is installed — and
/// Arg(1) runs the same case under a binding 4 kW cap-uniform budget,
/// bounding the cost of throttle/gate bookkeeping when one is.
void BM_PowerCapSweep(benchmark::State& state) {
  report::RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kCTC);
  core::DvfsConfig config;
  config.bsld_threshold = 2.0;
  config.wq_threshold = 16;
  spec.policy.dvfs = config;
  if (state.range(0) == 1) {
    spec.pm.name = "cap-uniform";
    spec.pm.cap_watts = 4000.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(report::run_one(spec));
  }
  state.SetItemsProcessed(state.iterations() * 5000);  // jobs per run
}
BENCHMARK(BM_PowerCapSweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Grid throughput through SweepRunner: 24 specs of which only 6 are
/// distinct (each repeated 4x, the shape of a figure grid with shared
/// baselines), so spec-keyed dedup simulates each distinct spec once. The
/// argument is fixed at 1, which keeps the guarded name
/// BM_SweepThroughput/1.
void BM_SweepThroughput(benchmark::State& state) {
  std::vector<report::RunSpec> specs;
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (const double threshold : {1.5, 2.0, 3.0}) {
      for (const bool wq_limited : {true, false}) {
        report::RunSpec spec;
        spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kCTC, 400);
        core::DvfsConfig dvfs;
        dvfs.bsld_threshold = threshold;
        if (wq_limited) dvfs.wq_threshold = 4;
        else dvfs.wq_threshold = std::nullopt;
        spec.policy.dvfs = dvfs;
        specs.push_back(spec);
      }
    }
  }
  report::SweepRunner::Options options;
  options.threads = 2;
  for (auto _ : state) {
    report::SweepRunner runner(options);
    benchmark::DoNotOptimize(runner.run(specs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_SweepThroughput)->Arg(1)->Unit(benchmark::kMillisecond);

/// Streaming vs retained measurement on a large synthetic workload:
/// Arg(1) keeps the full JobOutcome vector (the default), Arg(0) runs the
/// aggregate-only observer set. The `retained_kb` counter reports the
/// per-run memory the streaming mode avoids; SimulationResult aggregates
/// are bit-identical either way (covered by the integration suite).
void BM_RetainJobsMode(benchmark::State& state) {
  const bool retain = state.range(0) != 0;
  constexpr std::int32_t kJobs = 60'000;
  report::RunSpec spec;
  spec.workload =
      wl::WorkloadSource::from_archive(wl::Archive::kLLNLThunder, kJobs);
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 16;
  spec.policy.dvfs = dvfs;
  spec.retain_jobs = retain;
  double retained_kb = 0.0;
  for (auto _ : state) {
    const report::RunResult result = report::run_one(spec);
    benchmark::DoNotOptimize(result.sim().avg_bsld);
    retained_kb = static_cast<double>(result.sim().jobs.capacity() *
                                      sizeof(sim::JobOutcome)) /
                  1024.0;
  }
  state.counters["retained_kb"] = retained_kb;
  state.SetItemsProcessed(state.iterations() * kJobs);
}
BENCHMARK(BM_RetainJobsMode)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Warm-sweep throughput through the persistent result cache: the grid of
/// BM_SweepThroughput pre-stored once, then every iteration served entirely
/// from disk (progress.executed == 0). This is the "repeated sweeps are
/// free" headline — compare against BM_SweepThroughput/1 (the same grid,
/// simulated).
void BM_CacheHitSweep(benchmark::State& state) {
  std::vector<report::RunSpec> specs;
  for (const double threshold : {1.5, 2.0, 3.0}) {
    for (const bool wq_limited : {true, false}) {
      report::RunSpec spec;
      spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kCTC, 400);
      core::DvfsConfig dvfs;
      dvfs.bsld_threshold = threshold;
      if (wq_limited) dvfs.wq_threshold = 4;
      else dvfs.wq_threshold = std::nullopt;
      spec.policy.dvfs = dvfs;
      specs.push_back(spec);
    }
  }

  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("bsld-bench-cache-" + std::to_string(static_cast<long>(::getpid())));
  report::ResultCache cache(root);
  {
    report::SweepRunner::Options options;
    options.threads = 2;
    options.cache = &cache;
    report::SweepRunner warmup(options);
    (void)warmup.run(specs);  // populate the store once.
  }

  std::size_t executed = 0;
  for (auto _ : state) {
    report::SweepRunner::Options options;
    options.threads = 2;
    options.cache = &cache;
    report::SweepRunner runner(options);
    benchmark::DoNotOptimize(runner.run(specs));
    executed += runner.progress().executed;
  }
  state.counters["simulated"] = static_cast<double>(executed);  // expect 0.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_CacheHitSweep)->Unit(benchmark::kMillisecond);

/// An undersaturated generator profile: the wait queue stays shallow, so
/// the streaming benchmarks measure pipeline throughput, not the
/// scheduler's backlog scans (archive profiles run near saturation and
/// their per-event cost grows with trace length).
wl::WorkloadSpec low_load_spec(std::int64_t jobs) {
  wl::WorkloadSpec spec;
  spec.name = "lowload";
  spec.cpus = 256;
  spec.num_jobs = jobs;
  spec.arrival.load_target = 0.35;
  spec.runtime.classes = {{1.0, 4.0, 1.0}};
  return spec;
}

/// Pull-path ingest rate: open_stream() drained job by job, no simulation.
/// This is the floor every streaming run pays per job — generator draws,
/// (submit, id) ordering, and the virtual next() dispatch.
void BM_StreamIngest(benchmark::State& state) {
  const auto jobs = static_cast<std::int64_t>(state.range(0));
  const wl::WorkloadSource source =
      wl::WorkloadSource::from_spec(low_load_spec(jobs), 11);
  for (auto _ : state) {
    const std::unique_ptr<wl::JobStream> stream = wl::open_stream(source);
    while (std::optional<wl::Job> job = stream->next()) {
      benchmark::DoNotOptimize(*job);
    }
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_StreamIngest)->Arg(100'000)->Unit(benchmark::kMillisecond);

/// SWF ingest rate: the same low-load trace written to a temp file once,
/// then open_stream() over the file drained job by job — line split,
/// field parse, the (submit, id) sort window and per-record cleaning.
void BM_SwfIngest(benchmark::State& state) {
  const auto jobs = static_cast<std::int64_t>(state.range(0));
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("bsld-bench-ingest-" + std::to_string(static_cast<long>(::getpid())) +
       ".swf");
  wl::save_swf_file(path.string(), wl::generate(low_load_spec(jobs), 11));
  const wl::WorkloadSource source = wl::WorkloadSource::from_swf(path.string());
  for (auto _ : state) {
    const std::unique_ptr<wl::JobStream> stream = wl::open_stream(source);
    while (std::optional<wl::Job> job = stream->next()) {
      benchmark::DoNotOptimize(*job);
    }
  }
  state.SetItemsProcessed(state.iterations() * jobs);
  std::filesystem::remove(path);
}
BENCHMARK(BM_SwfIngest)
    ->Arg(100'000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The headline scale case: one million jobs pulled through the streaming
/// pipeline end to end — one outstanding submit, aggregate-only
/// observers, sampled traces — with the window high-water mark reported as
/// a counter (the O(1)-memory claim, asserted exactly by the integration
/// suite).
void BM_MillionJobSim(benchmark::State& state) {
  report::RunSpec spec;
  spec.workload = wl::WorkloadSource::from_spec(low_load_spec(1'000'000), 11);
  spec.retain_jobs = false;
  spec.instruments = {"wait-trace", "utilization"};
  spec.sample.cap = 512;
  double peak_live = 0.0;
  for (auto _ : state) {
    const report::RunResult result = report::run_one(spec);
    benchmark::DoNotOptimize(result.sim().avg_bsld);
    peak_live = static_cast<double>(result.sim().peak_live_jobs);
  }
  state.counters["peak_live_jobs"] = peak_live;
  state.SetItemsProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_MillionJobSim)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
