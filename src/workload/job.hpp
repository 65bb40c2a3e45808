/// \file job.hpp
/// \brief Immutable job trace records and the Workload bundle.
///
/// A Job is a row of a (possibly synthetic) workload trace in the spirit of
/// the Standard Workload Format: what the user submitted, when, how long it
/// actually ran at the machine's top frequency, and how long the user
/// *requested* (the runtime estimate backfilling depends on). Per-run state
/// (start time, assigned gear, ...) lives in the simulator, never here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace bsld::wl {

/// One job of a workload trace. Times are whole seconds (SWF convention);
/// `run_time` is the execution time at the top CPU frequency.
struct Job {
  JobId id = kNoJob;            ///< 1-based job number.
  Time submit = 0;              ///< Submission time since trace start.
  Time run_time = 0;            ///< Actual runtime at top frequency.
  Time requested_time = 0;      ///< User's runtime estimate (>= 1).
  std::int32_t size = 1;        ///< Number of processors (rigid job).
  std::int32_t user_id = -1;    ///< Submitting user (SWF field 12).
  /// Per-job frequency sensitivity for the beta time model; negative means
  /// "use the platform-wide beta" (the paper's assumption — per-job beta is
  /// its stated future work, exercised by the ablation bench).
  double beta = -1.0;

  friend bool operator==(const Job&, const Job&) = default;
};

/// A named trace plus the machine size it targets.
struct Workload {
  std::string name;
  std::int32_t cpus = 0;        ///< Number of processors of the system.
  std::vector<Job> jobs;        ///< Sorted by (submit, id).
};

}  // namespace bsld::wl
