/// \file naive_machine.hpp
/// \brief A deliberately naive per-CPU reference model of cluster::Machine
/// and the First/Last Fit selectors, used as the oracle of the machine's
/// differential test.
///
/// Every query scans all CPUs with the textbook definition and shares no
/// code or data structure with the incremental machine: a CPU is available
/// at `now` when free, otherwise at max(expected end, now + 1);
/// earliest_start is the size-th smallest availability time; First Fit
/// takes the lowest-indexed qualifying CPUs, Last Fit the highest.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "cluster/allocation.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace bsld::testing {

class NaiveMachine {
 public:
  explicit NaiveMachine(std::int32_t cpus)
      : jobs_(static_cast<std::size_t>(cpus), kNoJob),
        ends_(static_cast<std::size_t>(cpus), 0) {}

  [[nodiscard]] std::int32_t cpu_count() const {
    return static_cast<std::int32_t>(jobs_.size());
  }
  [[nodiscard]] bool is_free(CpuId cpu) const {
    return jobs_[static_cast<std::size_t>(cpu)] == kNoJob;
  }
  [[nodiscard]] std::int32_t free_now() const {
    return static_cast<std::int32_t>(
        std::count(jobs_.begin(), jobs_.end(), kNoJob));
  }
  /// CPUs of `job` in the order they were assigned.
  [[nodiscard]] const std::vector<CpuId>& cpus_of(JobId job) const {
    return held_.at(job);
  }
  /// Expected end of running `job`.
  [[nodiscard]] Time end_of(JobId job) const {
    return ends_[static_cast<std::size_t>(cpus_of(job).front())];
  }
  /// Running job ids, ascending.
  [[nodiscard]] std::vector<JobId> running() const {
    std::vector<JobId> out;
    for (const auto& [job, cpus] : held_) out.push_back(job);
    return out;
  }

  void assign(JobId job, const std::vector<CpuId>& cpus, Time expected_end) {
    for (const CpuId cpu : cpus) {
      BSLD_REQUIRE(is_free(cpu), "NaiveMachine: CPU busy");
      jobs_[static_cast<std::size_t>(cpu)] = job;
      ends_[static_cast<std::size_t>(cpu)] = expected_end;
    }
    held_[job] = cpus;
  }
  void release(JobId job) {
    for (const CpuId cpu : held_.at(job)) {
      jobs_[static_cast<std::size_t>(cpu)] = kNoJob;
    }
    held_.erase(job);
  }
  void update_expected_end(JobId job, Time expected_end) {
    for (const CpuId cpu : held_.at(job)) {
      ends_[static_cast<std::size_t>(cpu)] = expected_end;
    }
  }

  [[nodiscard]] Time avail_time(CpuId cpu, Time now) const {
    if (is_free(cpu)) return now;
    return std::max(ends_[static_cast<std::size_t>(cpu)], now + 1);
  }

  /// Number of CPUs available by `t`.
  [[nodiscard]] std::int32_t available_by(Time t, Time now) const {
    std::int32_t count = 0;
    for (CpuId cpu = 0; cpu < cpu_count(); ++cpu) {
      if (avail_time(cpu, now) <= t) ++count;
    }
    return count;
  }

  /// The size-th smallest availability time over all CPUs.
  [[nodiscard]] Time earliest_start(std::int32_t size, Time now) const {
    std::vector<Time> times;
    for (CpuId cpu = 0; cpu < cpu_count(); ++cpu) {
      times.push_back(avail_time(cpu, now));
    }
    std::sort(times.begin(), times.end());
    return times[static_cast<std::size_t>(size - 1)];
  }

  /// `size` CPUs available by `start`, in selector order; nullopt when too
  /// few qualify.
  [[nodiscard]] std::optional<std::vector<CpuId>> select_at(
      std::int32_t size, Time start, Time now, bool ascending) const {
    return take(size, ascending,
                [&](CpuId cpu) { return avail_time(cpu, now) <= start; });
  }

  /// `size` CPUs free now that cannot delay `reservation` when held until
  /// `expected_end`, in selector order; nullopt when too few qualify.
  [[nodiscard]] std::optional<std::vector<CpuId>> select_backfill(
      std::int32_t size, Time expected_end,
      const cluster::Reservation* reservation, bool ascending) const {
    const bool crosses = reservation != nullptr && reservation->active() &&
                         expected_end > reservation->start;
    return take(size, ascending, [&](CpuId cpu) {
      if (!is_free(cpu)) return false;
      return !crosses || !reservation->contains(cpu);
    });
  }

 private:
  template <typename Qualifies>
  [[nodiscard]] std::optional<std::vector<CpuId>> take(
      std::int32_t size, bool ascending, Qualifies qualifies) const {
    std::vector<CpuId> out;
    for (CpuId i = 0; i < cpu_count(); ++i) {
      const CpuId cpu = ascending ? i : cpu_count() - 1 - i;
      if (!qualifies(cpu)) continue;
      out.push_back(cpu);
      if (static_cast<std::int32_t>(out.size()) == size) return out;
    }
    return std::nullopt;
  }

  std::vector<JobId> jobs_;  ///< kNoJob when free.
  std::vector<Time> ends_;   ///< Valid only for busy CPUs.
  std::map<JobId, std::vector<CpuId>> held_;
};

}  // namespace bsld::testing
