/// \file fcfs.hpp
/// \brief Plain first-come-first-served scheduling (no backfilling).
///
/// Baseline and proof of the paper's portability claim: the same
/// FrequencyAssigner that powers the EASY integration drops into FCFS
/// unchanged.
#pragma once

#include <memory>
#include <vector>

#include "cluster/first_fit.hpp"
#include "core/frequency.hpp"
#include "core/scheduler.hpp"
#include "core/wait_queue.hpp"

namespace bsld::core {

/// FCFS: the head starts as soon as enough CPUs are free; nobody overtakes.
class Fcfs final : public SchedulingPolicy {
 public:
  Fcfs(std::unique_ptr<cluster::ResourceSelector> selector,
       std::unique_ptr<FrequencyAssigner> assigner);

  void on_submit(SchedulerContext& ctx, JobId id) override;
  void on_job_end(SchedulerContext& ctx, JobId id) override;

  [[nodiscard]] std::size_t queue_size() const override {
    return queue_.size();
  }
  [[nodiscard]] std::string name() const override;

 private:
  /// Starts head jobs while they fit right now.
  void drain(SchedulerContext& ctx);

  std::unique_ptr<cluster::ResourceSelector> selector_;
  std::unique_ptr<FrequencyAssigner> assigner_;
  WaitQueue queue_;
  std::vector<CpuId> cpus_;  ///< Selection buffer for every start.
};

}  // namespace bsld::core
