/// \file frequency.hpp
/// \brief CPU frequency assignment — the paper's primary contribution.
///
/// The FrequencyAssigner seam lets any base scheduling policy (EASY, FCFS,
/// conservative, ...) delegate gear selection, matching the paper's claim
/// that "the frequency scaling algorithm can be applied with any parallel
/// job scheduling policy". Two implementations:
///
///  * TopFrequency — the no-DVFS baseline: every job runs at Ftop.
///  * BsldThresholdAssigner — the paper's algorithm (Fig. 1 / Fig. 2):
///    starting from the lowest gear, accept the first gear whose predicted
///    BSLD stays within `bsld_threshold`, but only when no more than
///    `wq_threshold` jobs are waiting; otherwise run at Ftop.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/metrics.hpp"
#include "core/scheduler.hpp"
#include "util/function_ref.hpp"
#include "util/types.hpp"

namespace bsld::core {

/// Dilation coefficient for `job` at `gear`, honouring a per-job beta when
/// the trace carries one (job.beta >= 0) and the platform beta otherwise.
inline double job_coefficient(const SchedulerContext& ctx, const wl::Job& job,
                              GearIndex gear) {
  return ctx.time_model().coefficient_with_beta(gear, job.beta);
}

/// Dilated duration for `job` at `gear` (same beta resolution rule).
inline Time job_scaled_duration(const SchedulerContext& ctx,
                                const wl::Job& job, Time duration_at_top,
                                GearIndex gear) {
  return ctx.time_model().scale_duration_with_beta(duration_at_top, gear,
                                                   job.beta);
}

/// Tunables of the BSLD-threshold policy (paper §2.2 + DESIGN.md §4).
struct DvfsConfig {
  /// Maximum acceptable predicted BSLD for a reduced-frequency start.
  double bsld_threshold = 2.0;
  /// Maximum wait-queue size (excluding the job being scheduled, see
  /// `wq_counts_self`) at which DVFS may still be applied; nullopt means
  /// "NO LIMIT" in the paper's terminology.
  std::optional<std::int64_t> wq_threshold = 0;
  /// Th of Eqs. 1/2/6.
  Time bsld_floor = kDefaultBsldFloor;
  /// Count the job being scheduled in WQsize (paper ambiguity; default off
  /// — see DESIGN.md §4 decision 1).
  bool wq_counts_self = false;
  /// Fig. 2 else-branch: require satisfiesBSLD at Ftop before backfilling
  /// when the queue is over threshold (literal reading; ablated).
  bool backfill_requires_bsld_at_top = true;

  friend bool operator==(const DvfsConfig&, const DvfsConfig&) = default;
};

/// Strategy interface for gear selection at schedule time.
class FrequencyAssigner {
 public:
  virtual ~FrequencyAssigner() = default;

  /// Fig. 1 (MakeJobReservation) path: gear for `job` with planned start
  /// `start` (>= now; the head's start time does not depend on the gear).
  /// `wq_size` counts jobs waiting on execution, excluding `job` itself.
  [[nodiscard]] virtual GearIndex reservation_gear(
      const SchedulerContext& ctx, const wl::Job& job, Time start,
      std::size_t wq_size) const = 0;

  /// Fig. 2 (BackfillJob) path: gear for backfill candidate `job` starting
  /// now. `feasible(g)` reports whether a reservation-respecting allocation
  /// exists at gear g (duration dilates with the gear, so feasibility is
  /// gear-dependent); the reference is borrowed for this call only (see
  /// util/function_ref.hpp — no std::function, no per-call allocation).
  /// Returns nullopt when the job must not be backfilled.
  [[nodiscard]] virtual std::optional<GearIndex> backfill_gear(
      const SchedulerContext& ctx, const wl::Job& job,
      util::FunctionRef<bool(GearIndex)> feasible,
      std::size_t wq_size) const = 0;

  /// True only when backfill_gear returns nullopt for `job` at every time
  /// >= `now`, whatever the feasibility and WQsize. A scheduler may then
  /// stop offering the job for backfill; it still starts as a queue head.
  /// False ("unknown") by default, so decorators that do not forward it
  /// keep every retry.
  [[nodiscard]] virtual bool backfill_closed(const SchedulerContext& ctx,
                                             const wl::Job& job,
                                             Time now) const {
    (void)ctx;
    (void)job;
    (void)now;
    return false;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Baseline: no DVFS, everything at the top gear.
class TopFrequency final : public FrequencyAssigner {
 public:
  [[nodiscard]] GearIndex reservation_gear(const SchedulerContext& ctx,
                                           const wl::Job& job, Time start,
                                           std::size_t wq_size) const override;
  [[nodiscard]] std::optional<GearIndex> backfill_gear(
      const SchedulerContext& ctx, const wl::Job& job,
      util::FunctionRef<bool(GearIndex)> feasible,
      std::size_t wq_size) const override;
  [[nodiscard]] std::string name() const override { return "Ftop"; }
};

/// The paper's BSLD-threshold + WQ-threshold frequency assignment.
class BsldThresholdAssigner final : public FrequencyAssigner {
 public:
  explicit BsldThresholdAssigner(DvfsConfig config);

  [[nodiscard]] GearIndex reservation_gear(const SchedulerContext& ctx,
                                           const wl::Job& job, Time start,
                                           std::size_t wq_size) const override;
  [[nodiscard]] std::optional<GearIndex> backfill_gear(
      const SchedulerContext& ctx, const wl::Job& job,
      util::FunctionRef<bool(GearIndex)> feasible,
      std::size_t wq_size) const override;
  /// With `backfill_requires_bsld_at_top` both Fig. 2 branches accept a
  /// gear only if its predicted BSLD passes, so a job whose BSLD fails at
  /// Ftop is closed: Coef(Ftop) == 1.0 is the smallest coefficient, and
  /// max(1, (wait + req * coef) / max(req, Th)) only rises with the wait
  /// (every IEEE step is monotone, so this holds bit for bit). Without the
  /// flag the WQ-closed branch ignores BSLD and no job ever closes.
  [[nodiscard]] bool backfill_closed(const SchedulerContext& ctx,
                                     const wl::Job& job,
                                     Time now) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const DvfsConfig& config() const { return config_; }

  /// The predicted-BSLD acceptance test (Eq. 2) for one gear; exposed for
  /// unit tests.
  [[nodiscard]] bool satisfies_bsld(const SchedulerContext& ctx,
                                    const wl::Job& job, Time start,
                                    GearIndex gear) const;

 private:
  [[nodiscard]] bool wq_allows_dvfs(std::size_t wq_size) const;

  DvfsConfig config_;
};

}  // namespace bsld::core
