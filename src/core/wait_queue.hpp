/// \file wait_queue.hpp
/// \brief FCFS wait queue with stable order and O(1) head access.
///
/// EASY backfilling needs: FCFS iteration, head inspection, pop-head, and
/// removal of an arbitrary backfilled job without disturbing the relative
/// order of the rest. Each entry carries the job's size and a `closed`
/// mark, so a backfill scan can walk the queue by position and skip jobs
/// without looking them up. Membership queries are O(1): the deque carries
/// the order, a util::IdMap mirrors the contents (EASY checks membership
/// when it computes a head's or a newcomer's WQsize).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "util/id_map.hpp"
#include "util/types.hpp"

namespace bsld::core {

/// First-come-first-served queue of job ids.
class WaitQueue {
 public:
  /// One queued job.
  struct Entry {
    JobId id = kNoJob;
    std::int32_t size = 0;  ///< CPUs the job needs.
    /// Set by the owning policy once the job can never be backfilled
    /// again (EasyBackfilling); it leaves the queue with the entry.
    bool closed = false;
  };

  /// Appends a job of `size` CPUs (jobs arrive in submit order). Throws
  /// bsld::Error on duplicates.
  void push(JobId id, std::int32_t size);

  /// Head of the queue; throws bsld::Error when empty.
  [[nodiscard]] JobId head() const;

  /// Removes and returns the head; throws bsld::Error when empty.
  JobId pop_head();

  /// Removes `id` wherever it is; throws bsld::Error when absent. O(n) in
  /// queue length (order must be preserved).
  void remove(JobId id);

  /// Removes the entry at position `pos` (0 is the head); throws
  /// bsld::Error when out of range. O(n) like remove().
  void remove_at(std::size_t pos);

  [[nodiscard]] bool empty() const { return jobs_.empty(); }
  [[nodiscard]] std::size_t size() const { return jobs_.size(); }
  /// O(1) membership via the mirror set.
  [[nodiscard]] bool contains(JobId id) const {
    return members_.contains(id);
  }

  /// Entry at position `pos` (0 is the head); unchecked.
  [[nodiscard]] Entry& operator[](std::size_t pos) { return jobs_[pos]; }
  [[nodiscard]] const Entry& operator[](std::size_t pos) const {
    return jobs_[pos];
  }

  /// FCFS-ordered entries.
  [[nodiscard]] auto begin() const { return jobs_.begin(); }
  [[nodiscard]] auto end() const { return jobs_.end(); }

 private:
  std::deque<Entry> jobs_;             ///< FCFS order.
  util::IdMap<bool> members_;  ///< Mirror of jobs_ for contains().
};

}  // namespace bsld::core
