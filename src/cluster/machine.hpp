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
/// CPU sets are 64-bit words (bit c % 64 of word c / 64 is CPU c). The
/// machine keeps a free-CPU bitset, the running jobs sorted by (expected
/// end, job) with cumulative CPU counts, each job's expected end by id (so
/// a job is found by binary search on that order), and each job's CPUs as
/// a chain of (word, bits) segments ascending by word, so release and
/// held_cpus cost O(words held + running jobs) and nothing allocates once
/// grown.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/id_map.hpp"
#include "util/types.hpp"

namespace bsld::cluster {

/// Mutable cluster state.
class Machine {
 public:
  /// One running job in the end index.
  struct Running {
    Time expected_end = 0;
    JobId job = kNoJob;
    CpuId first_cpu = 0;            ///< cpus[0] of assign(): the handle.
    std::int32_t cpus = 0;          ///< CPUs the job holds.
    std::int32_t cpus_before = 0;   ///< CPUs held by the entries before it.
    CpuId lowest_cpu = 0;           ///< Head of the job's segment chain.
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
  /// valid until the next call. O(cpus / 64 + words held by those jobs).
  [[nodiscard]] const std::vector<std::uint64_t>& available_words(
      Time start, Time now) const;

  /// Appends the CPUs of `job` to `out`, ascending. Throws bsld::Error
  /// when `first_cpu` is not the handle of `job`.
  void held_cpus(JobId job, CpuId first_cpu, std::vector<CpuId>& out) const;

  /// Marks `cpus` busy with `job` until `expected_end`; cpus[0] becomes the
  /// job's handle. Throws bsld::Error, changing nothing, on a CPU out of
  /// range, listed twice or busy, or a job already running.
  void assign(JobId job, const std::vector<CpuId>& cpus, Time expected_end);

  /// Frees every CPU of `job`. Throws bsld::Error when `first_cpu` is not
  /// the handle of `job`.
  void release(JobId job, CpuId first_cpu);

  /// Re-times a running job's expected end (a mid-flight gear change).
  /// Throws bsld::Error when `first_cpu` is not the handle of `job`.
  void update_expected_end(JobId job, CpuId first_cpu, Time expected_end);

 private:
  /// CPUs of one running job within one word.
  struct Segment {
    std::uint64_t bits = 0;
    std::uint32_t word = 0;
    CpuId next = -1;  ///< Lowest CPU of the job's next segment, or -1.
  };

  /// Calls fn(segment) along the chain of `r`'s segments, ascending.
  template <typename Fn>
  void for_each_segment(const Running& r, Fn fn) const {
    for (CpuId s = r.lowest_cpu; s >= 0;) {
      const Segment& segment = segments_[static_cast<std::size_t>(s)];
      fn(segment);
      s = segment.next;
    }
  }

  /// Index of `job` in by_end_; throws unless its handle is `first_cpu`.
  [[nodiscard]] std::size_t find(JobId job, CpuId first_cpu) const;
  /// Inserts `entry` at its (expected end, job) position and returns it.
  std::size_t insert(const Running& entry);
  /// Recomputes cpus_before from `from` to the end.
  void reindex(std::size_t from);

  std::int32_t cpu_count_;
  std::int32_t free_now_;
  std::vector<std::uint64_t> free_;  ///< Bit set = CPU free.
  std::vector<Running> by_end_;
  util::IdMap<Time> ends_;  ///< Running job -> its by_end_ expected end.
  /// Running jobs' segments, each at its lowest CPU; other entries stale.
  std::vector<Segment> segments_;
  std::vector<Segment> claim_;       ///< assign() scratch: the list's runs.
  /// available_words() result for a future start, reused so the query
  /// never allocates; not a logical state change.
  mutable std::vector<std::uint64_t> scratch_;
};

}  // namespace bsld::cluster
