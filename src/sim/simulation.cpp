#include "sim/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/instruments.hpp"
#include "util/error.hpp"

namespace bsld::sim {

// Engine events carry the global trace index, not the JobId: the event
// loop and completion checks index straight into the job window without
// hashing. The JobId resurfaces from the window slot where policies and
// managers need it. kPmTimer events carry kNoJob.
//
// Pop-order equivalence of the one-submit pump (why pulling the stream one
// job at a time is byte-identical to scheduling every submit up front):
// submits are scheduled in stream order, and the engine breaks (time,
// kind) ties by schedule sequence — so same-time submits pop in stream
// order no matter when each was scheduled. Cross-kind ties are decided by
// kind alone (kJobEnd pops before a same-time kJobSubmit in both schemes).
// And since the stream is sorted, a job admitted while the clock sits at a
// popped submit's time T has submit >= T — never scheduled in the past.

Simulation::Simulation(wl::JobStream& stream, core::SchedulingPolicy& policy,
                       const power::PowerModel& power_model,
                       const power::BetaTimeModel& time_model,
                       SimulationConfig config)
    : policy_(policy),
      power_model_(power_model),
      time_model_(time_model),
      config_(config),
      pm_(config.power_manager),
      stream_(&stream),
      machine_(config.cpus > 0 ? config.cpus : stream.cpus()) {
  BSLD_REQUIRE(power_model_.gears() == time_model_.gears(),
               "Simulation: power and time models must share one gear set");
  batch_.reserve(kBatchCapacity);
}

void Simulation::add_observer(SimObserver& observer) {
  BSLD_REQUIRE(!ran_, "Simulation: add_observer() must precede run()");
  observers_.push_back(&observer);
}

const wl::Job& Simulation::job(JobId id) const {
  return window_.at(trace_index(id)).job;
}

const wl::Job& Simulation::job_at(std::uint64_t trace_index) const {
  return window_.at(trace_index).job;
}

std::uint64_t Simulation::trace_index(JobId id) const {
  const std::uint64_t* global = index_.find(id);
  BSLD_REQUIRE(global != nullptr, "Simulation: unknown job id");
  return *global;
}

RunningRec& Simulation::running(JobId id) {
  RunningRec& rec = window_.at(trace_index(id)).state;
  BSLD_REQUIRE(rec.running, "Simulation: job is not running");
  return rec;
}

const RunningRec& Simulation::running(JobId id) const {
  const RunningRec& rec = window_.at(trace_index(id)).state;
  BSLD_REQUIRE(rec.running, "Simulation: job is not running");
  return rec;
}

void Simulation::flush_events() {
  if (!batch_.empty()) {
    for (SimObserver* observer : chain_) {
      observer->on_events(*this, batch_.data(), batch_.size());
    }
    batch_.clear();
  }
  // Retire finished front jobs whose records have now all been delivered:
  // a finish record is pushed before `running` drops (finish_job), so any
  // flush that can observe running == false has already delivered it.
  // Unstarted (queued) and gated jobs block eviction behind them — that
  // residency is part of peak_live().
  while (window_.live() > 0) {
    const JobWindow::Slot& front = window_.front();
    if (!front.started || front.state.running) break;
    (void)index_.erase(front.job.id);
    window_.pop_front();
  }
}

void Simulation::pump_submit() {
  std::optional<wl::Job> job = stream_->next();
  if (!job.has_value()) return;
  BSLD_REQUIRE(job->size >= 1 && job->size <= machine_.cpu_count(),
               "Simulation: job size outside [1, cpus] — clean or clamp "
               "the workload first");
  BSLD_REQUIRE(job->run_time >= 0 && job->requested_time >= 1,
               "Simulation: invalid job durations");
  const std::uint64_t global = window_.admitted();
  BSLD_REQUIRE(index_.insert(job->id, global),
               "Simulation: duplicate job id");
  if (global == 0) first_submit_ = job->submit;
  const Time submit = job->submit;
  window_.admit(global, std::move(*job));
  engine_.schedule(Event{submit, EventKind::kJobSubmit, 0,
                         static_cast<JobId>(global)});
}

void Simulation::start_job(JobId id, const std::vector<CpuId>& cpus,
                           GearIndex gear) {
  const std::uint64_t global = trace_index(id);
  JobWindow::Slot& slot = window_.at(global);
  const wl::Job& trace = slot.job;
  BSLD_REQUIRE(!slot.started, "Simulation: job started twice");
  BSLD_REQUIRE(static_cast<std::int32_t>(cpus.size()) == trace.size,
               "Simulation: allocation size mismatch");
  BSLD_REQUIRE(engine_.now() >= trace.submit,
               "Simulation: job started before submission");

  // The power manager rules on every start: it may lower the gear under a
  // cap, gate the admission entirely, or charge a wake delay for sleeping
  // CPUs. Without a manager the decision is exactly the scheduler's ask.
  // The slot stays unstarted until the decision is in: re-gearing other
  // jobs pushes records, a push may flush, and the flush's eviction sweep
  // would retire a started-but-not-running job out from under this call.
  pm::StartDecision decision{false, gear, 0};
  if (pm_ != nullptr) {
    decision = pm_->on_job_start(*this, id, cpus, gear);
    BSLD_REQUIRE(decision.gear >= 0 &&
                     decision.gear <= time_model_.gears().top_index(),
                 "Simulation: power manager chose a gear out of range");
    BSLD_REQUIRE(decision.wake_delay >= 0,
                 "Simulation: negative wake delay");
    BSLD_REQUIRE(!decision.gate || decision.wake_delay == 0,
                 "Simulation: a gated admission cannot carry a wake delay");
  }
  const GearIndex start_gear = decision.gear;

  const Time scaled_runtime = time_model_.scale_duration_with_beta(
      trace.run_time, start_gear, trace.beta);

  RunningRec& state = slot.state;
  state.first_cpu = cpus.front();
  state.gear = start_gear;
  state.remaining_run_top = static_cast<double>(trace.run_time);
  state.remaining_req_top = static_cast<double>(trace.requested_time);
  state.start = engine_.now();
  state.start_gear = start_gear;
  state.boosted = false;
  state.gated = decision.gate;
  slot.started = true;
  state.running = true;
  state.scaled_requested =
      decision.wake_delay +
      std::max(time_model_.scale_duration_with_beta(trace.requested_time,
                                                    start_gear, trace.beta),
               scaled_runtime);
  if (decision.gate) {
    // Gated: the allocation is held but no work happens and no completion
    // is scheduled; release_job() starts the clock later. The machine's
    // expected end is a planning estimate the release will correct.
    state.segment_start = kNoTime;
    state.pending_end = kNoTime;
  } else {
    state.segment_start = engine_.now() + decision.wake_delay;
    state.pending_end = engine_.now() + decision.wake_delay + scaled_runtime;
  }

  machine_.assign(id, cpus, engine_.now() + state.scaled_requested);
  if (!decision.gate) {
    engine_.schedule(Event{state.pending_end, EventKind::kJobEnd, 0,
                           static_cast<JobId>(global)});
  }

  push_event(StartRecord{global, engine_.now(), start_gear, scaled_runtime,
                         state.scaled_requested});
}

std::vector<JobId> Simulation::running_jobs() const {
  // The machine holds exactly the started, unfinished jobs (gated ones
  // too); ascending ids give policies a deterministic order.
  std::vector<JobId> ids;
  for (const cluster::Machine::Running& held : machine_.by_end()) {
    ids.push_back(held.job);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

GearIndex Simulation::running_gear(JobId id) const { return running(id).gear; }

void Simulation::boost_job(JobId id, GearIndex gear) {
  RunningRec& state = running(id);
  BSLD_REQUIRE(gear >= state.gear,
               "Simulation: boost_job() cannot lower the gear");
  const GearIndex before = state.gear;
  retime_job(id, gear, /*mark_boosted=*/true);
  if (pm_ != nullptr && gear != before) {
    // The manager may take the raise straight back under a cap.
    pm_->on_job_raised(*this, id, gear);
  }
}

void Simulation::retime_job(JobId id, GearIndex gear, bool mark_boosted) {
  RunningRec& state = running(id);
  BSLD_REQUIRE(gear >= 0 && gear <= time_model_.gears().top_index(),
               "Simulation: gear out of range");
  if (gear == state.gear) return;

  if (state.gated) {
    // No clock is running; only the gear planned for release changes.
    state.gear = gear;
    state.start_gear = gear;
    return;
  }

  const std::uint64_t global = trace_index(id);
  const Time now = engine_.now();
  // During a wake delay the busy segment begins in the future: no work is
  // done yet (elapsed clamps to 0) and the new segment re-bases on the
  // pending wake, not on `now`.
  const Time base = std::max(now, state.segment_start);
  const Time elapsed = std::max<Time>(0, now - state.segment_start);
  const wl::Job& trace = window_.at(global).job;
  const double old_coefficient =
      time_model_.coefficient_with_beta(state.gear, trace.beta);
  const double progress_top = static_cast<double>(elapsed) / old_coefficient;

  // Close the old gear segment: observers (the energy probe in particular)
  // account it before the new gear takes over.
  push_event(GearChangeEvent{id, global, trace.size, now, state.gear, gear,
                             elapsed});
  state.remaining_run_top =
      std::max(0.0, state.remaining_run_top - progress_top);
  state.remaining_req_top =
      std::max(0.0, state.remaining_req_top - progress_top);
  state.gear = gear;
  state.segment_start = base;
  if (mark_boosted) state.boosted = true;
  (void)resume(global, base);
}

Time Simulation::resume(std::uint64_t global, Time base) {
  JobWindow::Slot& slot = window_.at(global);
  RunningRec& state = slot.state;
  const double coefficient =
      time_model_.coefficient_with_beta(state.gear, slot.job.beta);
  const Time run_left = static_cast<Time>(
      std::llround(state.remaining_run_top * coefficient));
  const Time req_left = std::max(
      run_left, static_cast<Time>(
                    std::llround(state.remaining_req_top * coefficient)));
  state.pending_end = base + run_left;
  machine_.update_expected_end(slot.job.id, state.first_cpu, base + req_left);
  engine_.schedule(Event{state.pending_end, EventKind::kJobEnd, 0,
                         static_cast<JobId>(global)});
  return req_left;
}

void Simulation::set_job_gear(JobId id, GearIndex gear) {
  retime_job(id, gear, /*mark_boosted=*/false);
}

void Simulation::release_job(JobId id, GearIndex gear) {
  RunningRec& state = running(id);
  BSLD_REQUIRE(state.gated,
               "Simulation: release_job() on a job that is not gated");
  BSLD_REQUIRE(gear >= 0 && gear <= time_model_.gears().top_index(),
               "Simulation: gear out of range");
  const Time now = engine_.now();
  state.gated = false;
  state.gear = gear;
  state.start_gear = gear;  // The gear execution actually begins at.
  state.segment_start = now;
  state.scaled_requested = (now - state.start) + resume(trace_index(id), now);
}

void Simulation::schedule_timer(Time at) {
  engine_.schedule(Event{at, EventKind::kPmTimer, 0, kNoJob});
}

void Simulation::emit(const pm::PmEvent& event) { push_event(event); }

void Simulation::finish_job(std::uint64_t global) {
  JobWindow::Slot& slot = window_.at(global);
  RunningRec& state = slot.state;
  const wl::Job& trace = slot.job;
  const JobId id = trace.id;

  JobOutcome outcome;
  outcome.id = id;
  outcome.submit = trace.submit;
  outcome.size = trace.size;
  outcome.run_time_top = trace.run_time;
  outcome.start = state.start;
  outcome.end = engine_.now();
  outcome.gear = state.start_gear;
  outcome.final_gear = state.gear;
  outcome.boosted = state.boosted;
  outcome.scaled_runtime = outcome.end - outcome.start;
  outcome.scaled_requested = state.scaled_requested;
  outcome.bsld = core::penalized_bsld(outcome.wait(), outcome.scaled_runtime,
                                      outcome.run_time_top,
                                      config_.bsld_floor);

  const Time final_segment = engine_.now() - state.segment_start;
  // Pushed while `running` is still set: if this push flushes the batch,
  // the eviction sweep cannot retire this job yet, so the record is always
  // delivered before the slot becomes evictable.
  push_event(FinishRecord{outcome, global, final_segment});

  if (pm_ != nullptr) {
    finish_cpus_.clear();
    machine_.held_cpus(id, state.first_cpu, finish_cpus_);
  }
  machine_.release(id, state.first_cpu);
  state.running = false;
  ++finished_;
  last_end_ = std::max(last_end_, outcome.end);
  if (pm_ != nullptr) pm_->on_job_finish(*this, id, finish_cpus_);
}

SimulationResult Simulation::run() {
  BSLD_REQUIRE(!ran_, "Simulation: run() is single-shot");
  ran_ = true;

  // Default observer set: everything SimulationResult reports. The
  // recorder joins only when per-job retention is on.
  JobRecorder recorder;
  AggregateAccumulator aggregates;
  EnergyProbe energy(power_model_);
  chain_.clear();
  if (config_.retain_jobs) chain_.push_back(&recorder);
  chain_.push_back(&aggregates);
  chain_.push_back(&energy);
  chain_.insert(chain_.end(), observers_.begin(), observers_.end());

  const RunBeginEvent begin{stream_->name(), stream_->size_hint(),
                            machine_.cpu_count(), power_model_.gears().size(),
                            config_.bsld_floor};
  notify([&](SimObserver& observer) { observer.on_run_begin(begin); });
  if (pm_ != nullptr) pm_->on_run_begin(*this);

  pump_submit();
  BSLD_REQUIRE(window_.admitted() > 0, "Simulation: empty workload");

  while (auto event = engine_.pop()) {
    switch (event->kind) {
      case EventKind::kJobSubmit: {
        const auto global = static_cast<std::uint64_t>(event->job);
        const JobId id = window_.at(global).job.id;
        push_event(SubmitRecord{global, event->time});
        if (pm_ != nullptr) pm_->on_job_submit(*this, id);
        policy_.on_submit(*this, id);
        // Admit the next job at the popped submit's time; the sorted-stream
        // contract guarantees it is never in the past.
        pump_submit();
        break;
      }
      case EventKind::kJobEnd: {
        const auto global = static_cast<std::uint64_t>(event->job);
        // A boost re-schedules the completion; the superseded event stays
        // in the queue and is skipped here — by the eviction range check
        // when the job has already retired, by timestamp mismatch when it
        // is still resident.
        if (global < window_.evicted()) break;
        const JobWindow::Slot& slot = window_.at(global);
        if (!slot.state.running || slot.state.pending_end != event->time) {
          break;
        }
        const JobId id = slot.job.id;
        finish_job(global);
        policy_.on_job_end(*this, id);
        break;
      }
      case EventKind::kPmTimer: {
        if (pm_ != nullptr) pm_->on_timer(*this);
        break;
      }
    }
  }

  BSLD_REQUIRE(policy_.queue_size() == 0,
               "Simulation: drained event queue but jobs are still waiting");
  BSLD_REQUIRE(machine_.by_end().empty(),
               "Simulation: drained event queue but jobs are still running");
  BSLD_REQUIRE(finished_ == static_cast<std::int64_t>(window_.admitted()),
               "Simulation: job never ran");

  // Final power-manager accounting (e.g. trailing sleep intervals) must
  // reach the instruments before they close out in on_run_end; flush the
  // batch afterwards so every buffered record lands first.
  if (pm_ != nullptr) pm_->on_run_end(*this);
  flush_events();

  const Time horizon = std::max<Time>(last_end_ - first_submit_, 1);
  const RunEndEvent end{first_submit_, last_end_,
                        horizon,       machine_.cpu_count(),
                        finished_,     engine_.processed()};
  notify([&](SimObserver& observer) { observer.on_run_end(end); });

  SimulationResult result;
  result.workload = std::string(stream_->name());
  result.policy = policy_.name();
  result.cpus = machine_.cpu_count();
  result.job_count = aggregates.count();
  result.avg_bsld = aggregates.avg_bsld();
  result.avg_wait = aggregates.avg_wait();
  result.reduced_jobs = aggregates.reduced_jobs();
  result.boosted_jobs = aggregates.boosted_jobs();
  result.jobs_per_gear = aggregates.jobs_per_gear();
  result.makespan = aggregates.makespan();
  result.energy = energy.report();
  result.utilization = energy.utilization();
  result.events_processed = engine_.processed();
  result.peak_live_jobs = static_cast<std::int64_t>(window_.peak_live());
  if (config_.retain_jobs) result.jobs = recorder.take();
  chain_.clear();
  return result;
}

}  // namespace bsld::sim
