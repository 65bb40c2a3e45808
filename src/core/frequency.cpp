#include "core/frequency.hpp"

#include <sstream>

#include "util/error.hpp"

namespace bsld::core {

GearIndex TopFrequency::reservation_gear(const SchedulerContext& ctx,
                                         const wl::Job& job, Time start,
                                         std::size_t wq_size) const {
  (void)job;
  (void)start;
  (void)wq_size;
  return ctx.time_model().gears().top_index();
}

std::optional<GearIndex> TopFrequency::backfill_gear(
    const SchedulerContext& ctx, const wl::Job& job,
    util::FunctionRef<bool(GearIndex)> feasible,
    std::size_t wq_size) const {
  (void)job;
  (void)wq_size;
  const GearIndex top = ctx.time_model().gears().top_index();
  if (feasible(top)) return top;
  return std::nullopt;
}

BsldThresholdAssigner::BsldThresholdAssigner(DvfsConfig config)
    : config_(config) {
  BSLD_REQUIRE(config_.bsld_threshold >= 1.0,
               "DvfsConfig: bsld_threshold below 1 can never be satisfied");
  BSLD_REQUIRE(!config_.wq_threshold || *config_.wq_threshold >= 0,
               "DvfsConfig: wq_threshold must be non-negative");
  BSLD_REQUIRE(config_.bsld_floor > 0, "DvfsConfig: bsld_floor must be positive");
}

bool BsldThresholdAssigner::wq_allows_dvfs(std::size_t wq_size) const {
  if (!config_.wq_threshold) return true;  // NO LIMIT
  const std::int64_t counted = static_cast<std::int64_t>(wq_size) +
                               (config_.wq_counts_self ? 1 : 0);
  return counted <= *config_.wq_threshold;
}

bool BsldThresholdAssigner::satisfies_bsld(const SchedulerContext& ctx,
                                           const wl::Job& job, Time start,
                                           GearIndex gear) const {
  BSLD_REQUIRE(start >= job.submit,
               "satisfies_bsld(): start precedes submission");
  const Time wait = start - job.submit;
  const double coefficient = job_coefficient(ctx, job, gear);
  const double predicted = predicted_bsld(wait, job.requested_time,
                                          coefficient, config_.bsld_floor);
  return predicted <= config_.bsld_threshold;
}

GearIndex BsldThresholdAssigner::reservation_gear(const SchedulerContext& ctx,
                                                  const wl::Job& job,
                                                  Time start,
                                                  std::size_t wq_size) const {
  const GearIndex top = ctx.time_model().gears().top_index();
  if (!wq_allows_dvfs(wq_size)) return top;  // Fig. 1 else-branch
  // Fig. 1 loop: lowest gear first; first gear satisfying the predicted
  // BSLD wins. When even Ftop fails, the job still runs at Ftop (the loop
  // cannot leave the head unscheduled — DESIGN.md §4 decision 2).
  for (GearIndex g = 0; g <= top; ++g) {
    if (satisfies_bsld(ctx, job, start, g)) return g;
  }
  return top;
}

std::optional<GearIndex> BsldThresholdAssigner::backfill_gear(
    const SchedulerContext& ctx, const wl::Job& job,
    util::FunctionRef<bool(GearIndex)> feasible,
    std::size_t wq_size) const {
  const GearIndex top = ctx.time_model().gears().top_index();
  const Time now = ctx.now();
  if (wq_allows_dvfs(wq_size)) {
    // Fig. 2 loop: the first gear with a correct allocation and an
    // acceptable predicted BSLD.
    for (GearIndex g = 0; g <= top; ++g) {
      if (feasible(g) && satisfies_bsld(ctx, job, now, g)) return g;
    }
    return std::nullopt;
  }
  // Fig. 2 else-branch: try only Ftop; the literal pseudocode also demands
  // the BSLD check here (ablatable, DESIGN.md §4 decision 3).
  if (!feasible(top)) return std::nullopt;
  if (config_.backfill_requires_bsld_at_top &&
      !satisfies_bsld(ctx, job, now, top)) {
    return std::nullopt;
  }
  return top;
}

bool BsldThresholdAssigner::backfill_closed(const SchedulerContext& ctx,
                                            const wl::Job& job,
                                            Time now) const {
  return config_.backfill_requires_bsld_at_top &&
         !satisfies_bsld(ctx, job, now, ctx.time_model().gears().top_index());
}

std::string BsldThresholdAssigner::name() const {
  std::ostringstream os;
  os << "BSLD<=" << config_.bsld_threshold << ",WQ<=";
  if (config_.wq_threshold) os << *config_.wq_threshold;
  else os << "NO";
  return os.str();
}

}  // namespace bsld::core
