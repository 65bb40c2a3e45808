/// \file machine.hpp
/// \brief The simulated DVFS-enabled cluster: CPU occupancy and the
/// availability profile that backfilling's findAllocation queries.
///
/// Each CPU runs at most one process (rigid jobs). A running job advertises
/// its *expected* end — start + requested time scaled by its gear — because
/// that is all EASY backfilling may assume. A CPU is available at `now` when
/// free, otherwise at max(expected end, now + 1): the clamp keeps overrunning
/// jobs from looking free before their real completion. Only running jobs
/// hold CPUs, so free capacity is non-decreasing in time and
/// `earliest_start` is a selection (k-th smallest availability time).
///
/// No query scans all CPUs: assign / release / re-time keep, in O(job size +
/// running jobs) and without allocating once grown, a free-CPU bitset (bit
/// c % 64 of word c / 64 set iff CPU c is free), the running jobs sorted by
/// (expected end, job) with cumulative CPU counts, and a per-CPU "next CPU
/// of the same job" chain.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/types.hpp"

namespace bsld::cluster {

/// Mutable cluster state.
class Machine {
 public:
  /// One running job in the end index.
  struct Running {
    Time expected_end = 0;
    JobId job = kNoJob;
    CpuId first_cpu = 0;            ///< Head of the job's CPU chain.
    std::int32_t cpus = 0;          ///< CPUs the job holds.
    std::int32_t cpus_before = 0;   ///< CPUs held by the entries before it.
  };

  /// Bits per word of the CPU bitsets.
  static constexpr std::int32_t kWordBits = 64;

  /// A machine with `cpu_count` identical DVFS-enabled processors.
  explicit Machine(std::int32_t cpu_count);

  [[nodiscard]] std::int32_t cpu_count() const { return cpu_count_; }

  /// Number of CPUs free right now (O(1)).
  [[nodiscard]] std::int32_t free_now() const { return free_now_; }

  /// True when `cpu` runs no job. Throws bsld::Error when out of range.
  [[nodiscard]] bool is_free(CpuId cpu) const {
    BSLD_REQUIRE(cpu >= 0 && cpu < cpu_count_, "Machine: cpu out of range");
    const auto index = static_cast<std::size_t>(cpu);
    return ((free_[index / kWordBits] >> (index % kWordBits)) & 1) != 0;
  }

  /// Earliest time at which `size` CPUs are simultaneously available
  /// (>= now). Throws bsld::Error when size exceeds the machine.
  /// O(log running jobs).
  [[nodiscard]] Time earliest_start(std::int32_t size, Time now) const;

  /// Running jobs sorted by (expected end, job).
  [[nodiscard]] const std::vector<Running>& by_end() const { return by_end_; }

  /// The free-CPU bitset.
  [[nodiscard]] const std::vector<std::uint64_t>& free_words() const {
    return free_;
  }

  /// Bitset of the CPUs available by `start` (>= now): the free ones plus
  /// those of jobs whose clamped expected end is <= start. Returns
  /// free_words() when no job ends by then; otherwise a scratch bitset
  /// valid until the next call. O(cpus / 64 + CPUs of those jobs).
  [[nodiscard]] const std::vector<std::uint64_t>& available_words(
      Time start, Time now) const;

  /// Appends the CPUs of `job` to `out` in assign order. Throws bsld::Error
  /// when `first_cpu` is not the first CPU of `job`.
  void held_cpus(JobId job, CpuId first_cpu, std::vector<CpuId>& out) const;

  /// Marks `cpus` busy with `job` until `expected_end`; cpus[0] becomes the
  /// job's first CPU. Throws bsld::Error when any CPU is already busy or
  /// the job is already running.
  void assign(JobId job, const std::vector<CpuId>& cpus, Time expected_end);

  /// Frees every CPU of `job`. Throws bsld::Error when `first_cpu` is not
  /// the first CPU of `job`.
  void release(JobId job, CpuId first_cpu);

  /// Re-times a running job's expected end (a mid-flight gear change).
  /// Throws bsld::Error when `first_cpu` is not the first CPU of `job`.
  void update_expected_end(JobId job, CpuId first_cpu, Time expected_end);

 private:
  /// Index of `job` in by_end_; throws unless its first CPU is `first_cpu`.
  [[nodiscard]] std::size_t find(JobId job, CpuId first_cpu) const;
  /// Inserts `entry` at its (expected end, job) position and returns it.
  std::size_t insert(const Running& entry);
  /// Recomputes cpus_before from `from` to the end.
  void reindex(std::size_t from);

  std::int32_t cpu_count_;
  std::int32_t free_now_;
  std::vector<std::uint64_t> free_;  ///< Bit set = CPU free.
  std::vector<Running> by_end_;
  std::vector<CpuId> next_;          ///< Next CPU of the same job, or -1.
  /// available_words() result for a future start, reused so the query
  /// never allocates; not a logical state change.
  mutable std::vector<std::uint64_t> scratch_;
};

}  // namespace bsld::cluster
