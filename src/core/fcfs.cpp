#include "core/fcfs.hpp"

#include <sstream>

#include "util/error.hpp"

namespace bsld::core {

Fcfs::Fcfs(std::unique_ptr<cluster::ResourceSelector> selector,
           std::unique_ptr<FrequencyAssigner> assigner)
    : selector_(std::move(selector)), assigner_(std::move(assigner)) {
  BSLD_REQUIRE(selector_ != nullptr, "Fcfs: selector is required");
  BSLD_REQUIRE(assigner_ != nullptr, "Fcfs: assigner is required");
}

void Fcfs::on_submit(SchedulerContext& ctx, JobId id) {
  queue_.push(id, ctx.job(id).size);
  drain(ctx);
}

void Fcfs::on_job_end(SchedulerContext& ctx, JobId id) {
  (void)id;
  drain(ctx);
}

void Fcfs::drain(SchedulerContext& ctx) {
  const cluster::Machine& machine = ctx.machine();
  while (!queue_.empty()) {
    const JobId head = queue_.head();
    const wl::Job& job = ctx.job(head);
    BSLD_REQUIRE(job.size <= machine.cpu_count(),
                 "Fcfs: job larger than the machine");
    if (machine.free_now() < job.size) return;
    const GearIndex gear = assigner_->reservation_gear(
        ctx, job, ctx.now(), queue_.size() - 1);
    selector_->select_at(machine, job.size, ctx.now(), ctx.now(), cpus_);
    queue_.pop_head();
    ctx.start_job(head, cpus_, gear);
  }
}

std::string Fcfs::name() const {
  std::ostringstream os;
  os << "FCFS[" << selector_->name() << "," << assigner_->name() << "]";
  return os.str();
}

}  // namespace bsld::core
