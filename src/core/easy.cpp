#include "core/easy.hpp"

#include <bit>
#include <sstream>
#include <vector>

#include "util/error.hpp"

namespace bsld::core {

EasyBackfilling::EasyBackfilling(
    std::unique_ptr<cluster::ResourceSelector> selector,
    std::unique_ptr<FrequencyAssigner> assigner)
    : selector_(std::move(selector)), assigner_(std::move(assigner)) {
  BSLD_REQUIRE(selector_ != nullptr, "EasyBackfilling: selector is required");
  BSLD_REQUIRE(assigner_ != nullptr, "EasyBackfilling: assigner is required");
}

const cluster::Reservation* EasyBackfilling::reservation() const {
  return reservation_.active() ? &reservation_ : nullptr;
}

std::string EasyBackfilling::name() const {
  std::ostringstream os;
  os << "EASY[" << selector_->name() << "," << assigner_->name() << "]";
  return os.str();
}

std::size_t EasyBackfilling::wq_size_excluding(JobId self) const {
  BSLD_REQUIRE(queue_.contains(self),
               "EasyBackfilling: WQsize queried for a job not in the queue");
  return queue_.size() - 1;
}

void EasyBackfilling::on_submit(SchedulerContext& ctx, JobId id) {
  const std::int32_t size = ctx.job(id).size;
  queue_.push(id, size);
  if (queue_.size() == 1) {
    // The newcomer is the head: MakeJobReservation (start now or reserve).
    schedule_heads(ctx);
    return;
  }
  // A head reservation already exists (class invariant: a non-empty queue
  // always has one after every handler); machine state did not change, so
  // only the new job gets a backfill attempt.
  BSLD_REQUIRE(reservation_.active(),
               "EasyBackfilling: non-empty queue without a reservation");
  if (ctx.machine().free_now() >= size) {
    try_backfill_one(ctx, queue_.size() - 1, wq_size_excluding(id));
  }
}

void EasyBackfilling::on_job_end(SchedulerContext& ctx, JobId id) {
  (void)id;  // CPUs are already released; identity is irrelevant here.
  // "Rescheduling of all queued jobs is done when a job finishes earlier
  // than it has been expected" — we rebuild the schedule on every
  // completion (an exact-time completion is the boundary case of that rule
  // and needs the same pass to start the jobs the completion unblocks).
  if (queue_.empty()) {
    reservation_.clear();
    return;
  }
  if (schedule_heads(ctx)) backfill_scan(ctx);
}

void EasyBackfilling::start_head(SchedulerContext& ctx, JobId id) {
  const wl::Job& job = ctx.job(id);
  const GearIndex gear = assigner_->reservation_gear(
      ctx, job, ctx.now(), wq_size_excluding(id));
  const bool selected = selector_->select_now(ctx.machine(), job.size,
                                             kNoTime, nullptr, cpus_);
  BSLD_REQUIRE(selected, "EasyBackfilling: head started without free CPUs");
  queue_.pop_head();
  ctx.start_job(id, cpus_, gear);
}

bool EasyBackfilling::schedule_heads(SchedulerContext& ctx) {
  reservation_.clear();
  const cluster::Machine& machine = ctx.machine();
  while (!queue_.empty()) {
    const JobId head = queue_.head();
    const wl::Job& job = ctx.job(head);
    BSLD_REQUIRE(job.size <= machine.cpu_count(),
                 "EasyBackfilling: job larger than the machine");
    const Time start = machine.earliest_start(job.size, ctx.now());
    if (start <= ctx.now()) {
      start_head(ctx, head);
      continue;
    }
    // Future start: reserve the First-Fit CPU set available at `start`.
    // The head's earliest start does not depend on its gear (free capacity
    // is non-decreasing in time), so the reservation is gear-agnostic; the
    // binding gear decision happens at the pass in which the job starts
    // (DESIGN.md §4 decision 4).
    reservation_.job = head;
    reservation_.start = start;
    selector_->reserve(machine, job.size, start, ctx.now(), reservation_.mask);
    free_outside_reservation_ = 0;
    const std::vector<std::uint64_t>& free = machine.free_words();
    for (std::size_t w = 0; w < free.size(); ++w) {
      free_outside_reservation_ += std::popcount(free[w] & ~reservation_.mask[w]);
    }
    return true;
  }
  return false;
}

void EasyBackfilling::backfill_scan(SchedulerContext& ctx) {
  // FCFS order by position, head excluded (it owns the reservation). A
  // backfill removes its entry, so the next candidate slides into `pos`.
  // Every position below size() is queued, so each candidate's WQsize is
  // size() - 1; the one membership check per pass is the head's.
  BSLD_REQUIRE(queue_.head() == reservation_.job,
               "EasyBackfilling: backfill scan without the head's reservation");
  const cluster::Machine& machine = ctx.machine();
  for (std::size_t pos = 1; pos < queue_.size();) {
    const WaitQueue::Entry& entry = queue_[pos];
    const bool skip = entry.closed || entry.size > machine.free_now();
    if (skip || !try_backfill_one(ctx, pos, queue_.size() - 1)) ++pos;
  }
}

bool EasyBackfilling::try_backfill_one(SchedulerContext& ctx, std::size_t pos,
                                       std::size_t wq_size) {
  const cluster::Machine& machine = ctx.machine();
  const JobId id = queue_[pos].id;
  const wl::Job& job = ctx.job(id);
  const Time now = ctx.now();
  const auto feasible = [&](GearIndex gear) {
    const Time end = now + job_scaled_duration(ctx, job, job.requested_time, gear);
    if (end > reservation_.start) {
      // Would still hold CPUs at the reserved start: only CPUs outside the
      // reservation qualify.
      return free_outside_reservation_ >= job.size;
    }
    return machine.free_now() >= job.size;
  };

  const std::optional<GearIndex> gear =
      assigner_->backfill_gear(ctx, job, feasible, wq_size);
  if (!gear) {
    queue_[pos].closed = assigner_->backfill_closed(ctx, job, now);
    return false;
  }

  const Time end = now + job_scaled_duration(ctx, job, job.requested_time, *gear);
  const bool selected =
      selector_->select_now(machine, job.size, end, &reservation_, cpus_);
  BSLD_REQUIRE(selected,
               "EasyBackfilling: selector disagreed with feasibility counters");
  for (const CpuId cpu : cpus_) {
    if (!reservation_.contains(cpu)) --free_outside_reservation_;
  }
  queue_.remove_at(pos);
  ctx.start_job(id, cpus_, *gear);
  return true;
}

}  // namespace bsld::core
