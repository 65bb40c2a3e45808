#include "workload/cleaner.hpp"

namespace bsld::wl {

std::optional<Job> JobCleaner::accept(Job job) {
  if (job.size <= 0 || job.run_time <= 0 || job.submit < 0) {
    ++report_.dropped_invalid;
    return std::nullopt;
  }
  if (options_.machine_cpus > 0 && job.size > options_.machine_cpus) {
    job.size = options_.machine_cpus;
    ++report_.clamped_size;
  }
  if (job.requested_time <= 0) job.requested_time = job.run_time;
  if (job.run_time > job.requested_time) {
    job.requested_time = job.run_time;
    ++report_.clamped_runtime;
  }
  ++report_.kept;
  return job;
}

}  // namespace bsld::wl
