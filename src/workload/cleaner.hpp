/// \file cleaner.hpp
/// \brief Trace cleaning, mirroring the "cleaned" Parallel Workload Archive
/// logs the paper simulates (§3.2): invalid records are dropped, jobs are
/// clamped to the machine, and flurries — bursts of activity by a single
/// user that are not representative of normal usage — are removed.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "util/types.hpp"
#include "workload/job.hpp"

namespace bsld::wl {

/// Knobs for clean(); defaults follow the archive's cleaning conventions.
struct CleanOptions {
  /// Machine size; jobs requesting more processors are clamped (<= 0 keeps
  /// job sizes untouched).
  std::int32_t machine_cpus = 0;
  /// Drop jobs with non-positive runtime (zero-length records carry no
  /// scheduling signal and distort BSLD via the max(Th, runtime) floor).
  bool drop_zero_runtime = true;
  /// Ensure requested_time >= run_time (backfilling assumes estimates are
  /// upper bounds; archive logs occasionally violate this).
  bool clamp_runtime_to_requested = true;
  /// Flurry removal: a user submitting more than `flurry_max_jobs` within
  /// any `flurry_window`-second sliding window has the excess dropped.
  /// Set flurry_max_jobs to 0 to disable.
  std::int64_t flurry_max_jobs = 0;
  Time flurry_window = 3600;
};

/// Outcome counters for reporting/validation.
struct CleanReport {
  std::size_t kept = 0;
  std::size_t dropped_invalid = 0;
  std::size_t dropped_flurry = 0;
  std::size_t clamped_size = 0;
  std::size_t clamped_runtime = 0;
};

/// Incremental form of clean(): records are accepted one at a time in
/// trace order, so an SWF file can be cleaned while it streams. clean() is
/// a drain loop over this class — one rule set, two call shapes.
class JobCleaner {
 public:
  explicit JobCleaner(CleanOptions options) : options_(std::move(options)) {}

  /// Applies the cleaning rules to one record. Returns the (possibly
  /// clamped) job, or std::nullopt when the record is dropped; either way
  /// the outcome counters accumulate into report().
  std::optional<Job> accept(Job job);

  /// Counters over every record accepted so far.
  [[nodiscard]] const CleanReport& report() const { return report_; }

 private:
  CleanOptions options_;
  CleanReport report_;
  /// Sliding submission window per user for flurry detection.
  std::map<std::int32_t, std::deque<Time>> user_windows_;
};

/// Cleans `workload` in place; returns what happened. Jobs remain sorted by
/// (submit, id) and keep their original ids.
CleanReport clean(Workload& workload, const CleanOptions& options);

/// Extracts a contiguous `count`-job slice starting at `first_index`
/// (0-based), re-basing submit times so the slice starts at t = 0. This is
/// how the paper builds its "5000 job part of each workload". Throws
/// bsld::Error when the slice is out of range.
Workload slice(const Workload& workload, std::size_t first_index,
               std::size_t count);

}  // namespace bsld::wl
