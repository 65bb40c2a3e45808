#include "core/conservative.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "cluster/profile.hpp"
#include "util/error.hpp"

namespace bsld::core {

ConservativeBackfilling::ConservativeBackfilling(
    std::unique_ptr<cluster::ResourceSelector> selector,
    std::unique_ptr<FrequencyAssigner> assigner)
    : selector_(std::move(selector)), assigner_(std::move(assigner)) {
  BSLD_REQUIRE(selector_ != nullptr,
               "ConservativeBackfilling: selector is required");
  BSLD_REQUIRE(assigner_ != nullptr,
               "ConservativeBackfilling: assigner is required");
}

std::string ConservativeBackfilling::name() const {
  std::ostringstream os;
  os << "CONS[" << selector_->name() << "," << assigner_->name() << "]";
  return os.str();
}

void ConservativeBackfilling::on_submit(SchedulerContext& ctx, JobId id) {
  queue_.push(id, ctx.job(id).size);
  schedule_pass(ctx);
}

void ConservativeBackfilling::on_job_end(SchedulerContext& ctx, JobId id) {
  (void)id;
  schedule_pass(ctx);
}

void ConservativeBackfilling::schedule_pass(SchedulerContext& ctx) {
  const cluster::Machine& machine = ctx.machine();
  const Time now = ctx.now();

  // Re-plan from scratch (the "compression" step): start with the capacity
  // consumed by running jobs, then reserve a slot for every queued job in
  // FCFS order. Replanning on each event means planned starts only move
  // earlier, preserving conservative semantics.
  while (true) {
    cluster::AvailabilityProfile profile(machine.cpu_count(), now);
    for (const cluster::Machine::Running& held : machine.by_end()) {
      profile.reserve(now, std::max(held.expected_end, now + 1), held.cpus);
    }

    JobId to_start = kNoJob;
    GearIndex start_gear = 0;
    for (const WaitQueue::Entry& entry : queue_) {
      const JobId id = entry.id;
      const wl::Job& job = ctx.job(id);
      BSLD_REQUIRE(job.size <= machine.cpu_count(),
                   "ConservativeBackfilling: job larger than the machine");
      // Plan the gear first (duration depends on it), using the slot the
      // top gear would get as the wait estimate — the paper's Fig. 1 loop
      // evaluated against this policy's findAllocation.
      const Time top_duration = job_scaled_duration(
          ctx, job, job.requested_time, ctx.time_model().gears().top_index());
      const Time top_start = profile.earliest_slot(job.size, top_duration, now);
      const GearIndex gear = assigner_->reservation_gear(
          ctx, job, top_start, queue_.size() - 1);
      const Time duration = std::max<Time>(
          1, job_scaled_duration(ctx, job, job.requested_time, gear));
      const Time start = profile.earliest_slot(job.size, duration, now);
      if (start <= now && to_start == kNoJob) {
        to_start = id;
        start_gear = gear;
        break;  // start it, then re-plan against the new machine state
      }
      profile.reserve(start, start + duration, job.size);
    }

    if (to_start == kNoJob) return;
    const wl::Job& job = ctx.job(to_start);
    BSLD_REQUIRE(
        selector_->select_now(machine, job.size, kNoTime, nullptr, cpus_),
        "ConservativeBackfilling: no free CPUs for a planned start");
    queue_.remove(to_start);
    ctx.start_job(to_start, cpus_, start_gear);
  }
}

}  // namespace bsld::core
