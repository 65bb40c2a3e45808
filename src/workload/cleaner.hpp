/// \file cleaner.hpp
/// \brief Trace cleaning, mirroring the "cleaned" Parallel Workload Archive
/// logs the paper simulates (§3.2): invalid records are dropped and jobs
/// are clamped to the machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "workload/job.hpp"

namespace bsld::wl {

/// Knobs for JobCleaner.
struct CleanOptions {
  /// Machine size; jobs requesting more processors are clamped (<= 0 keeps
  /// job sizes untouched).
  std::int32_t machine_cpus = 0;
};

/// Outcome counters for reporting/validation.
struct CleanReport {
  std::size_t kept = 0;
  std::size_t dropped_invalid = 0;
  std::size_t clamped_size = 0;
  std::size_t clamped_runtime = 0;
};

/// Cleans records one at a time in trace order, so an SWF file can be
/// cleaned while it streams. Every rule is per-record:
///  * records with a non-positive size, a negative submit time or a
///    non-positive runtime are dropped (zero-length records carry no
///    scheduling signal and distort BSLD via the max(Th, runtime) floor);
///  * sizes above the machine are clamped to it;
///  * a missing estimate becomes the runtime, and an estimate below the
///    runtime is raised to it (backfilling assumes estimates are upper
///    bounds; archive logs occasionally violate this).
class JobCleaner {
 public:
  explicit JobCleaner(CleanOptions options) : options_(options) {}

  /// Applies the cleaning rules to one record. Returns the (possibly
  /// clamped) job, or std::nullopt when the record is dropped; either way
  /// the outcome counters accumulate into report().
  std::optional<Job> accept(Job job);

  /// Counters over every record accepted so far.
  [[nodiscard]] const CleanReport& report() const { return report_; }

 private:
  CleanOptions options_;
  CleanReport report_;
};

}  // namespace bsld::wl
