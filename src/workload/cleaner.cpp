#include "workload/cleaner.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "util/error.hpp"

namespace bsld::wl {

std::optional<Job> JobCleaner::accept(Job job) {
  if (job.size <= 0 || job.run_time < 0 || job.submit < 0) {
    ++report_.dropped_invalid;
    return std::nullopt;
  }
  if (options_.drop_zero_runtime && job.run_time == 0) {
    ++report_.dropped_invalid;
    return std::nullopt;
  }
  if (options_.machine_cpus > 0 && job.size > options_.machine_cpus) {
    job.size = options_.machine_cpus;
    ++report_.clamped_size;
  }
  if (job.requested_time <= 0) job.requested_time = std::max<Time>(job.run_time, 1);
  if (options_.clamp_runtime_to_requested &&
      job.run_time > job.requested_time) {
    job.requested_time = job.run_time;
    ++report_.clamped_runtime;
  }

  if (options_.flurry_max_jobs > 0) {
    auto& window = user_windows_[job.user_id];
    while (!window.empty() &&
           job.submit - window.front() > options_.flurry_window) {
      window.pop_front();
    }
    if (static_cast<std::int64_t>(window.size()) >=
        options_.flurry_max_jobs) {
      ++report_.dropped_flurry;
      return std::nullopt;
    }
    window.push_back(job.submit);
  }

  ++report_.kept;
  return job;
}

CleanReport clean(Workload& workload, const CleanOptions& options) {
  JobCleaner cleaner(options);
  std::vector<Job> kept;
  kept.reserve(workload.jobs.size());
  for (const Job& job : workload.jobs) {
    if (std::optional<Job> cleaned = cleaner.accept(job)) {
      kept.push_back(*cleaned);
    }
  }
  workload.jobs = std::move(kept);
  return cleaner.report();
}

Workload slice(const Workload& workload, std::size_t first_index,
               std::size_t count) {
  BSLD_REQUIRE(first_index + count <= workload.jobs.size(),
               "slice(): range exceeds workload size");
  Workload out;
  out.name = workload.name;
  out.cpus = workload.cpus;
  out.jobs.assign(workload.jobs.begin() + static_cast<std::ptrdiff_t>(first_index),
                  workload.jobs.begin() +
                      static_cast<std::ptrdiff_t>(first_index + count));
  if (!out.jobs.empty()) {
    const Time base = out.jobs.front().submit;
    for (Job& job : out.jobs) job.submit -= base;
  }
  return out;
}

}  // namespace bsld::wl
