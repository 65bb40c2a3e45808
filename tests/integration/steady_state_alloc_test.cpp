/// \file steady_state_alloc_test.cpp
/// \brief Regression guard for the per-job allocation cost of a streamed
/// run. A counting global operator new measures a low-load run of N and
/// of 2N jobs through report::run_one with retain_jobs off; the difference
/// is what N extra jobs cost once every container is warm. Node-based
/// containers on the per-job path (a hash map or ordered map entry per
/// job) cost one or more allocations per job each; the bound below allows
/// only the std::deque block churn of the job queues.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>  // bsld-lint: allow(new-delete): the header, not an expression
#include <string>

#include "report/experiment.hpp"
#include "workload/source.hpp"
#include "workload/swf.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// The replaceable global allocation functions: every form of operator new
// and operator delete without an alignment argument lands here (the
// library's array and nothrow forms forward to these).
// bsld-lint: allow(new-delete): replaces the global allocator to count calls
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* memory = std::malloc(size == 0 ? 1 : size)) return memory;
  throw std::bad_alloc();
}
// bsld-lint: allow(new-delete): the matching replacement deallocation
void operator delete(void* memory) noexcept { std::free(memory); }
// bsld-lint: allow(new-delete): the matching replacement deallocation
void operator delete(void* memory, std::size_t) noexcept { std::free(memory); }

namespace bsld::report {
namespace {

/// The 256-CPU, ~35%-load profile of streaming_scale_test: a shallow
/// queue, so a run's cost is per job rather than per backlog scan.
wl::WorkloadSpec low_load_profile(std::int64_t jobs) {
  wl::WorkloadSpec spec;
  spec.name = "lowload";
  spec.cpus = 256;
  spec.num_jobs = jobs;
  spec.arrival.load_target = 0.35;
  spec.runtime.classes = {{1.0, 4.0, 1.0}};
  return spec;
}

/// Allocations made by run_one(spec), checking the run completed.
std::uint64_t allocations_of(const RunSpec& spec, std::int64_t jobs) {
  const std::uint64_t before = g_allocations.load();
  const RunResult result = run_one(spec);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(result.sim().job_count, jobs);
  EXPECT_TRUE(result.sim().jobs.empty());
  return after - before;
}

/// Allocations per job of the second N jobs of a 2N-job run.
double steady_state_per_job(const RunSpec& n_jobs, const RunSpec& two_n_jobs,
                            std::int64_t n) {
  const std::uint64_t small = allocations_of(n_jobs, n);
  const std::uint64_t large = allocations_of(two_n_jobs, 2 * n);
  EXPECT_GT(large, small);
  return static_cast<double>(large - small) / static_cast<double>(n);
}

constexpr std::int64_t kJobs = 40000;
constexpr double kMaxPerJob = 0.25;

TEST(SteadyStateAllocTest, SyntheticStreamAllocatesAlmostNothingPerJob) {
  RunSpec small;
  small.workload = wl::WorkloadSource::from_spec(low_load_profile(kJobs), 11);
  small.retain_jobs = false;
  RunSpec large = small;
  large.workload =
      wl::WorkloadSource::from_spec(low_load_profile(2 * kJobs), 11);

  const double per_job = steady_state_per_job(small, large, kJobs);
  EXPECT_LT(per_job, kMaxPerJob);
  RecordProperty("allocations_per_job", std::to_string(per_job));
}

TEST(SteadyStateAllocTest, SwfStreamAllocatesAlmostNothingPerJob) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("bsld-steady-alloc-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "lowload.swf").string();
  wl::save_swf_file(path, wl::load_source(wl::WorkloadSource::from_spec(
                              low_load_profile(2 * kJobs), 11)));

  RunSpec small;
  small.workload = wl::WorkloadSource::from_swf(path, kJobs);
  small.retain_jobs = false;
  RunSpec large = small;
  large.workload = wl::WorkloadSource::from_swf(path, 2 * kJobs);

  const double per_job = steady_state_per_job(small, large, kJobs);
  fs::remove_all(dir);
  EXPECT_LT(per_job, kMaxPerJob);
  RecordProperty("allocations_per_job", std::to_string(per_job));
}

}  // namespace
}  // namespace bsld::report
