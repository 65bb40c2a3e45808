/// \file easy.hpp
/// \brief EASY backfilling (Mu'alem & Feitelson) with pluggable frequency
/// assignment — the paper's power-aware scheduler when combined with
/// BsldThresholdAssigner, and the baseline when combined with TopFrequency.
///
/// Semantics (paper §2.1/§2.2):
///  * jobs run in FCFS order; only the head of the wait queue holds a
///    reservation at its earliest possible start time;
///  * a later job may be backfilled iff it can start immediately without
///    delaying the reservation (it must either finish before the reserved
///    start or use only CPUs outside the reserved set);
///  * all queued jobs are rescheduled whenever a job finishes (early
///    completions shift the whole schedule, so the reservation is
///    recomputed from scratch);
///  * gear selection follows Fig. 1 (head path) and Fig. 2 (backfill path)
///    via the injected FrequencyAssigner.
///
/// Closed jobs: when a backfill candidate is refused and the assigner's
/// backfill_closed() says it can never be accepted again, its queue entry
/// is marked closed and later scans skip it without a context or assigner
/// call. For BsldThresholdAssigner that is a job whose predicted BSLD
/// already fails at Ftop: Ftop has the smallest coefficient (1.0 exactly)
/// and the prediction only rises as the wait grows, so Fig. 2 refuses the
/// job at every later time, gear, feasibility and WQsize. The mark changes
/// nothing else: a closed job still counts in WQsize, still becomes the
/// head and still starts through Fig. 1.
#pragma once

#include <memory>
#include <vector>

#include "cluster/first_fit.hpp"
#include "core/frequency.hpp"
#include "core/scheduler.hpp"
#include "core/wait_queue.hpp"

namespace bsld::core {

/// EASY backfilling policy.
class EasyBackfilling final : public SchedulingPolicy {
 public:
  /// Both collaborators are required; the policy owns them.
  EasyBackfilling(std::unique_ptr<cluster::ResourceSelector> selector,
                  std::unique_ptr<FrequencyAssigner> assigner);

  void on_submit(SchedulerContext& ctx, JobId id) override;
  void on_job_end(SchedulerContext& ctx, JobId id) override;

  [[nodiscard]] std::size_t queue_size() const override {
    return queue_.size();
  }
  [[nodiscard]] const cluster::Reservation* reservation() const override;
  [[nodiscard]] std::string name() const override;

 private:
  /// Jobs waiting on execution other than `self` (WQsize of the paper);
  /// throws when `self` is not queued.
  [[nodiscard]] std::size_t wq_size_excluding(JobId self) const;

  /// Starts queued head jobs while possible, then (re)builds the head
  /// reservation. Returns true when a reservation is active afterwards.
  bool schedule_heads(SchedulerContext& ctx);

  /// One FCFS scan over the non-head queue attempting backfills. Skips
  /// closed entries and entries larger than the free CPUs untouched.
  void backfill_scan(SchedulerContext& ctx);

  /// BackfillJob(J), under the head's reservation, for the open entry at
  /// position `pos` > 0 that fits the free CPUs, with `wq_size` others waiting.
  /// Returns true when it started (and left the queue); marks the entry
  /// closed when the assigner says it never can.
  bool try_backfill_one(SchedulerContext& ctx, std::size_t pos,
                        std::size_t wq_size);

  /// MakeJobReservation's immediate-start body for the current head.
  void start_head(SchedulerContext& ctx, JobId id);

  std::unique_ptr<cluster::ResourceSelector> selector_;
  std::unique_ptr<FrequencyAssigner> assigner_;
  WaitQueue queue_;
  /// Reused across passes: clear() keeps the mask's storage.
  cluster::Reservation reservation_;
  /// Free CPUs outside the reserved set (maintained during backfill scans).
  std::int32_t free_outside_reservation_ = 0;
  std::vector<CpuId> cpus_;          ///< Selection buffer for every start.
};

}  // namespace bsld::core
