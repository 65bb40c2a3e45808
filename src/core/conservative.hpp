/// \file conservative.hpp
/// \brief Conservative backfilling with pluggable frequency assignment.
///
/// Extension beyond the paper (its §6 discusses EASY only): under
/// conservative backfilling *every* queued job holds a reservation and a
/// later job may only backfill when it delays none of them. We implement
/// the standard recompute-with-compression variant: on every event the full
/// reservation schedule is rebuilt in FCFS order against the availability
/// profile (cluster/profile.hpp), so planned starts can only improve.
/// Demonstrates the paper's claim that the BSLD-threshold frequency
/// assigner composes with any base scheduling policy.
#pragma once

#include <memory>
#include <vector>

#include "cluster/first_fit.hpp"
#include "core/frequency.hpp"
#include "core/scheduler.hpp"
#include "core/wait_queue.hpp"

namespace bsld::core {

/// Conservative backfilling policy.
class ConservativeBackfilling final : public SchedulingPolicy {
 public:
  ConservativeBackfilling(std::unique_ptr<cluster::ResourceSelector> selector,
                          std::unique_ptr<FrequencyAssigner> assigner);

  void on_submit(SchedulerContext& ctx, JobId id) override;
  void on_job_end(SchedulerContext& ctx, JobId id) override;

  [[nodiscard]] std::size_t queue_size() const override {
    return queue_.size();
  }
  [[nodiscard]] std::string name() const override;

 private:
  /// Rebuilds the whole plan and starts every job whose slot begins now.
  void schedule_pass(SchedulerContext& ctx);

  std::unique_ptr<cluster::ResourceSelector> selector_;
  std::unique_ptr<FrequencyAssigner> assigner_;
  WaitQueue queue_;
  std::vector<CpuId> cpus_;  ///< Selection buffer for every start.
};

}  // namespace bsld::core
