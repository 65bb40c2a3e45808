#include "sim/instruments.hpp"

#include <algorithm>
#include <ostream>
#include <span>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace bsld::sim {

// ---------------------------------------------------------------------------
// JobRecorder
// ---------------------------------------------------------------------------

void JobRecorder::on_run_begin(const RunBeginEvent& event) {
  jobs_.clear();
  if (event.job_count_hint >= 0) {
    jobs_.assign(static_cast<std::size_t>(event.job_count_hint), JobOutcome{});
  }
}

void JobRecorder::on_events(const JobResolver& /*jobs*/,
                            const BatchedEvent* events, std::size_t count) {
  for (const BatchedEvent& event : std::span(events, count)) {
    const auto* finish = std::get_if<FinishRecord>(&event);
    if (finish == nullptr) continue;
    // Jobs finish out of trace order; grow to cover the index when the run
    // began without an exact job-count hint.
    const auto index = static_cast<std::size_t>(finish->trace_index);
    if (index >= jobs_.size()) jobs_.resize(index + 1);
    jobs_[index] = finish->outcome;
  }
}

void JobRecorder::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.write_row({"id", "submit_s", "start_s", "end_s", "size", "gear",
                 "final_gear", "boosted", "wait_s", "scaled_runtime_s",
                 "bsld"});
  for (const JobOutcome& job : jobs_) {
    csv.write_row({std::to_string(job.id), std::to_string(job.submit),
                   std::to_string(job.start), std::to_string(job.end),
                   std::to_string(job.size), std::to_string(job.gear),
                   std::to_string(job.final_gear), job.boosted ? "1" : "0",
                   std::to_string(job.wait()),
                   std::to_string(job.scaled_runtime),
                   util::fmt_double(job.bsld, 6)});
  }
}

// ---------------------------------------------------------------------------
// AggregateAccumulator
// ---------------------------------------------------------------------------

void AggregateAccumulator::on_run_begin(const RunBeginEvent& event) {
  count_ = 0;
  bsld_sum_ = 0.0;
  wait_sum_ = 0;
  reduced_ = 0;
  boosted_ = 0;
  jobs_per_gear_.assign(event.gear_count, 0);
  top_gear_ = static_cast<GearIndex>(event.gear_count) - 1;
  makespan_ = 0;
  next_index_ = 0;
  pending_bsld_.assign(kInitialPending, PendingBsld{});
  pending_count_ = 0;
  pm_events_.clear();
  gated_seconds_ = 0.0;
  sleep_core_seconds_ = 0.0;
  wake_delay_seconds_ = 0.0;
}

void AggregateAccumulator::on_events(const JobResolver& /*jobs*/,
                                     const BatchedEvent* events,
                                     std::size_t count) {
  for (const BatchedEvent& event : std::span(events, count)) {
    if (const auto* finish = std::get_if<FinishRecord>(&event)) {
      add_finish(*finish);
    } else if (const auto* action = std::get_if<pm::PmEvent>(&event)) {
      ++pm_events_[action->kind];
      switch (action->kind) {
        case pm::PmEventKind::kRelease:
          gated_seconds_ += action->seconds;
          break;
        case pm::PmEventKind::kSleepInterval:
          sleep_core_seconds_ += action->seconds;
          break;
        case pm::PmEventKind::kWake:
          wake_delay_seconds_ += action->seconds;
          break;
        default:
          break;
      }
    }
  }
}

std::int64_t AggregateAccumulator::pm_events(pm::PmEventKind kind) const {
  const auto it = pm_events_.find(kind);
  return it == pm_events_.end() ? 0 : it->second;
}

void AggregateAccumulator::add_finish(const FinishRecord& finish) {
  const JobOutcome& outcome = finish.outcome;
  ++count_;
  wait_sum_ += outcome.wait();
  ++jobs_per_gear_[static_cast<std::size_t>(outcome.gear)];
  if (outcome.gear != top_gear_) ++reduced_;
  if (outcome.boosted) ++boosted_;
  makespan_ = std::max(makespan_, outcome.end);

  BSLD_REQUIRE(finish.trace_index >= next_index_,
               "AggregateAccumulator: job finished twice");
  // Drain the reorder buffer in trace order so the naive double sum is
  // bit-identical to iterating a retained JobOutcome vector.
  if (finish.trace_index == next_index_) {
    bsld_sum_ += outcome.bsld;
    ++next_index_;
    const std::size_t mask = pending_bsld_.size() - 1;
    while (pending_count_ > 0) {
      PendingBsld& slot = pending_bsld_[next_index_ & mask];
      if (!slot.present) break;
      bsld_sum_ += slot.bsld;
      slot.present = false;
      --pending_count_;
      ++next_index_;
    }
  } else {
    grow_pending(finish.trace_index);
    PendingBsld& slot =
        pending_bsld_[finish.trace_index & (pending_bsld_.size() - 1)];
    BSLD_REQUIRE(!slot.present, "AggregateAccumulator: job finished twice");
    slot = PendingBsld{outcome.bsld, true};
    ++pending_count_;
  }
}

void AggregateAccumulator::grow_pending(std::uint64_t trace_index) {
  std::size_t size = pending_bsld_.size();
  if (trace_index - next_index_ < size) return;
  while (trace_index - next_index_ >= size) size *= 2;
  std::vector<PendingBsld> grown(size);
  for (std::uint64_t i = next_index_ + 1; i < next_index_ + pending_bsld_.size();
       ++i) {
    grown[i & (size - 1)] = pending_bsld_[i & (pending_bsld_.size() - 1)];
  }
  pending_bsld_.swap(grown);
}

double AggregateAccumulator::avg_bsld() const {
  BSLD_REQUIRE(pending_count_ == 0,
               "AggregateAccumulator: BSLD reorder buffer not drained — "
               "some jobs never finished");
  return count_ == 0 ? 0.0 : bsld_sum_ / static_cast<double>(count_);
}

double AggregateAccumulator::avg_wait() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(wait_sum_) /
                           static_cast<double>(count_);
}

void AggregateAccumulator::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  std::vector<std::string> headers{"jobs",    "avg_bsld", "avg_wait_s",
                                   "reduced", "boosted",  "makespan_s"};
  std::vector<std::string> row{
      std::to_string(count_),   util::fmt_double(avg_bsld(), 6),
      util::fmt_double(avg_wait(), 3), std::to_string(reduced_),
      std::to_string(boosted_), std::to_string(makespan_)};
  for (std::size_t g = 0; g < jobs_per_gear_.size(); ++g) {
    headers.push_back("jobs_gear" + std::to_string(g));
    row.push_back(std::to_string(jobs_per_gear_[g]));
  }
  csv.write_row(headers);
  csv.write_row(row);
}

// ---------------------------------------------------------------------------
// EnergyProbe
// ---------------------------------------------------------------------------

EnergyProbe::EnergyProbe(const power::PowerModel& model) : model_(model) {
  meter_.emplace(model_);
}

void EnergyProbe::on_run_begin(const RunBeginEvent& event) {
  (void)event;
  meter_.emplace(model_);
  report_ = power::EnergyReport{};
  utilization_ = 0.0;
}

void EnergyProbe::on_events(const JobResolver& /*jobs*/,
                            const BatchedEvent* events, std::size_t count) {
  for (const BatchedEvent& event : std::span(events, count)) {
    if (const auto* change = std::get_if<GearChangeEvent>(&event)) {
      meter_->add_execution(change->size, change->from,
                            change->segment_seconds);
    } else if (const auto* finish = std::get_if<FinishRecord>(&event)) {
      meter_->add_execution(finish->outcome.size, finish->outcome.final_gear,
                            finish->final_segment_seconds);
    } else if (const auto* action = std::get_if<pm::PmEvent>(&event);
               action != nullptr &&
               action->kind == pm::PmEventKind::kSleepInterval) {
      meter_->add_sleep(action->seconds, action->watts);
    }
  }
}

void EnergyProbe::on_run_end(const RunEndEvent& event) {
  report_ = meter_->report(event.cpus, event.horizon);
  utilization_ = report_.busy_core_seconds /
                 (static_cast<double>(event.cpus) *
                  static_cast<double>(event.horizon));
}

void EnergyProbe::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.write_row({"computational_j", "total_j", "idle_j", "busy_core_s",
                 "idle_core_s", "horizon_s", "utilization"});
  csv.write_row({util::fmt_double(report_.computational_joules, 0),
                 util::fmt_double(report_.total_joules, 0),
                 util::fmt_double(report_.idle_joules, 0),
                 util::fmt_double(report_.busy_core_seconds, 0),
                 util::fmt_double(report_.idle_core_seconds, 0),
                 std::to_string(report_.horizon),
                 util::fmt_double(utilization_, 6)});
}

// ---------------------------------------------------------------------------
// WaitQueueTrace
// ---------------------------------------------------------------------------

WaitQueueTrace::WaitQueueTrace(util::SamplePlan plan)
    : plan_(plan), wait_sampler_(plan), depth_sampler_(plan) {}

void WaitQueueTrace::on_run_begin(const RunBeginEvent& /*event*/) {
  waits_.clear();
  wait_rows_.clear();
  depth_.clear();
  queued_ = 0;
  pending_ = {};
  wait_sampler_.reset();
  depth_sampler_.reset();
  has_open_ = false;
}

void WaitQueueTrace::on_events(const JobResolver& jobs,
                               const BatchedEvent* events, std::size_t count) {
  for (const BatchedEvent& event : std::span(events, count)) {
    if (const auto* submit = std::get_if<SubmitRecord>(&event)) {
      ++queued_;
      sample(submit->time);
      (void)pending_.insert(
          static_cast<JobId>(submit->trace_index),
          JobWait{jobs.job_at(submit->trace_index).submit, 0, 0, queued_});
    } else if (const auto* start = std::get_if<StartRecord>(&event)) {
      --queued_;
      sample(start->time);
      const auto key = static_cast<JobId>(start->trace_index);
      JobWait wait;
      if (const JobWait* submitted = pending_.find(key)) {
        wait = *submitted;
        (void)pending_.erase(key);
      }
      wait.start = start->time;
      wait.wait = start->time - jobs.job_at(start->trace_index).submit;
      wait_sampler_.push({start->trace_index, wait});
    }
  }
}

void WaitQueueTrace::on_run_end(const RunEndEvent& /*event*/) {
  if (has_open_) {
    depth_sampler_.push(open_);
    has_open_ = false;
  }
  // Retained waits are sampled in start order; present them in trace
  // order, with the true trace index labelling each row.
  auto retained = wait_sampler_.sorted();
  std::sort(retained.begin(), retained.end(),
            [](const auto& a, const auto& b) {
              return a.value.first < b.value.first;
            });
  waits_.reserve(retained.size());
  wait_rows_.reserve(retained.size());
  for (const auto& item : retained) {
    wait_rows_.push_back(item.value.first);
    waits_.push_back(item.value.second);
  }
  depth_.reserve(depth_sampler_.retained());
  for (const auto& item : depth_sampler_.sorted()) {
    depth_.push_back(item.value);
  }
}

void WaitQueueTrace::sample(Time time) {
  // Coalesce same-time changes in the open sample; only closed instants
  // enter the sampler, so retention below the cap is exact.
  if (has_open_ && open_.time == time) {
    open_.depth = queued_;
    return;
  }
  if (has_open_) depth_sampler_.push(open_);
  open_ = DepthSample{time, queued_};
  has_open_ = true;
}

void WaitQueueTrace::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.write_row({"job_index", "submit_s", "start_s", "wait_s",
                 "queue_depth_after_submit"});
  for (std::size_t i = 0; i < waits_.size(); ++i) {
    csv.write_row({std::to_string(wait_rows_[i]),
                   std::to_string(waits_[i].submit),
                   std::to_string(waits_[i].start),
                   std::to_string(waits_[i].wait),
                   std::to_string(waits_[i].depth_after_submit)});
  }
}

// ---------------------------------------------------------------------------
// UtilizationTrace
// ---------------------------------------------------------------------------

UtilizationTrace::UtilizationTrace(const power::PowerModel& model,
                                   util::SamplePlan plan)
    : model_(model), plan_(plan), sampler_(plan) {}

void UtilizationTrace::on_run_begin(const RunBeginEvent& event) {
  samples_.clear();
  busy_ = 0;
  power_ = 0.0;
  cpus_ = event.cpus;
  sampler_.reset();
  has_open_ = false;
}

void UtilizationTrace::on_events(const JobResolver& jobs,
                                 const BatchedEvent* events,
                                 std::size_t count) {
  for (const BatchedEvent& event : std::span(events, count)) {
    if (const auto* start = std::get_if<StartRecord>(&event)) {
      const std::int32_t size = jobs.job_at(start->trace_index).size;
      busy_ += size;
      power_ += static_cast<double>(size) * model_.active_power(start->gear);
      sample(start->time);
    } else if (const auto* change = std::get_if<GearChangeEvent>(&event)) {
      power_ += static_cast<double>(change->size) *
                (model_.active_power(change->to) -
                 model_.active_power(change->from));
      sample(change->time);
    } else if (const auto* finish = std::get_if<FinishRecord>(&event)) {
      busy_ -= finish->outcome.size;
      power_ -= static_cast<double>(finish->outcome.size) *
                model_.active_power(finish->outcome.final_gear);
      sample(finish->outcome.end);
    }
  }
}

void UtilizationTrace::sample(Time time) {
  const Sample next{time, busy_,
                    cpus_ > 0 ? static_cast<double>(busy_) / cpus_ : 0.0,
                    power_};
  // Same-time coalescing before the sampler, as in WaitQueueTrace.
  if (has_open_ && open_.time == time) {
    open_ = next;
    return;
  }
  if (has_open_) sampler_.push(open_);
  open_ = next;
  has_open_ = true;
}

void UtilizationTrace::on_run_end(const RunEndEvent& /*event*/) {
  if (has_open_) {
    sampler_.push(open_);
    has_open_ = false;
  }
  samples_.reserve(sampler_.retained());
  for (const auto& item : sampler_.sorted()) samples_.push_back(item.value);
}

void UtilizationTrace::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.write_row({"time_s", "busy_cores", "utilization", "power_watts"});
  for (const Sample& sample : samples_) {
    csv.write_row({std::to_string(sample.time),
                   std::to_string(sample.busy_cores),
                   util::fmt_double(sample.utilization, 6),
                   util::fmt_double(sample.power_watts, 1)});
  }
}

// ---------------------------------------------------------------------------
// PmTrace
// ---------------------------------------------------------------------------

void PmTrace::on_run_begin(const RunBeginEvent& event) {
  (void)event;
  events_.clear();
}

void PmTrace::on_events(const JobResolver& /*jobs*/,
                        const BatchedEvent* events, std::size_t count) {
  for (const BatchedEvent& event : std::span(events, count)) {
    if (const auto* action = std::get_if<pm::PmEvent>(&event)) {
      events_.push_back(*action);
    }
  }
}

void PmTrace::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.write_row({"time_s", "kind", "job", "cpu_count", "gear_from", "gear_to",
                 "watts", "aux_watts", "seconds", "sleep_state"});
  for (const pm::PmEvent& event : events_) {
    csv.write_row({std::to_string(event.time), pm::to_string(event.kind),
                   std::to_string(event.job), std::to_string(event.cpu_count),
                   std::to_string(event.gear_from),
                   std::to_string(event.gear_to),
                   util::fmt_double(event.watts, 3),
                   util::fmt_double(event.aux_watts, 3),
                   util::fmt_double(event.seconds, 3),
                   std::to_string(event.sleep_state)});
  }
}

}  // namespace bsld::sim
