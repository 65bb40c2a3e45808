/// \file simulation.hpp
/// \brief Drives one workload through one scheduling policy on one machine.
///
/// Measurement is decoupled from the driver: the Simulation owns the
/// machine, the clock and job mechanics, and emits a sim::SimObserver
/// event stream (observer.hpp) at every state change. All numbers the
/// paper's evaluation reports are produced by observers over that stream
/// (instruments.hpp); run() attaches the default set — AggregateAccumulator
/// + EnergyProbe, plus a JobRecorder unless retain_jobs is off — and
/// assembles their output into SimulationResult. Additional views
/// (time-series instruments, downstream custom observers) attach via
/// add_observer() without touching this class.
///
/// Job ingestion is pull-based and there is one execution path
/// (docs/simulation-internals.md, "Job ingestion & streaming"): the
/// simulation reads a wl::JobStream one job ahead of the clock — exactly
/// one submit event is pending at any time — so a million-job trace flows
/// through without ever being materialized. Callers holding a wl::Workload
/// replay it through a wl::VectorJobStream. Job state lives in a
/// sim::JobWindow — a bounded ring of in-flight jobs addressed by global
/// trace index; engine events carry that index, so the event loop never
/// hashes a JobId — and finished, delivered jobs are evicted from the
/// front, bounding per-job memory by the next job plus the jobs
/// simultaneously queued or running. A running job's CPU list lives in the
/// machine (cluster::Machine chains it from the first CPU), and observer
/// dispatch is batched (observer.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "core/metrics.hpp"
#include "core/scheduler.hpp"
#include "pm/power_manager.hpp"
#include "power/energy_meter.hpp"
#include "power/power_model.hpp"
#include "power/time_model.hpp"
#include "sim/engine.hpp"
#include "sim/job_window.hpp"
#include "sim/observer.hpp"
#include "util/id_map.hpp"
#include "workload/job.hpp"
#include "workload/stream.hpp"

namespace bsld::sim {

/// Per-run knobs.
struct SimulationConfig {
  /// Machine size; 0 means "use the workload's cpus". The enlarged-system
  /// study (paper §5.2) passes scaled values here while keeping job sizes.
  std::int32_t cpus = 0;
  /// Th of the BSLD metric (Eqs. 1/6).
  Time bsld_floor = core::kDefaultBsldFloor;
  /// Retain the per-job JobOutcome vector in the result. Switching this
  /// off drops the O(jobs) storage — aggregate-only sweeps over very large
  /// synthetic workloads run in O(1) memory per worker; SimulationResult
  /// aggregates are bit-identical either way.
  bool retain_jobs = true;
  /// Optional cluster power manager (non-owning; must outlive run()).
  /// nullptr — like the registered `pm=none` manager — leaves every run
  /// bit-identical to the pre-pm simulator.
  pm::PowerManager* power_manager = nullptr;
};

/// Aggregate results of one run — the product of the default observer set.
struct SimulationResult {
  std::string workload;
  std::string policy;
  std::int32_t cpus = 0;
  std::int64_t job_count = 0;           ///< Jobs simulated (valid always).
  std::vector<JobOutcome> jobs;         ///< Trace order; empty when
                                        ///< SimulationConfig::retain_jobs
                                        ///< is off.
  double avg_bsld = 0.0;                ///< Mean penalized BSLD (paper Fig. 5/9).
  double avg_wait = 0.0;                ///< Mean wait, seconds (Table 3).
  std::int64_t reduced_jobs = 0;        ///< Jobs started below Ftop (Fig. 4).
  std::int64_t boosted_jobs = 0;        ///< Jobs raised mid-flight (extension).
  std::vector<std::int64_t> jobs_per_gear;
  power::EnergyReport energy;           ///< Fig. 3/7/8 inputs.
  Time makespan = 0;                    ///< Last completion time.
  double utilization = 0.0;             ///< Busy share of cpus*horizon.
  std::uint64_t events_processed = 0;
  /// High-water mark of simultaneously resident jobs — the per-job memory
  /// bound (the next job plus queued, running and undelivered jobs).
  std::int64_t peak_live_jobs = 0;
};

/// One simulation run. The Simulation is the policy's SchedulerContext and
/// the power manager's PmContext; it owns the machine and the clock, while
/// the policy owns the wait queue and all decisions, the manager owns
/// power actuation, and observers own every measurement. It is also the
/// JobResolver its batched observer deliveries resolve trace indices
/// through — resolution reaches the live job window.
class Simulation final : public core::SchedulerContext,
                         public pm::PmContext,
                         public JobResolver {
 public:
  /// Pulls jobs from `stream` one at a time, each when the previous job's
  /// submit pops. The stream must yield jobs in non-decreasing submit order
  /// (wl::sort_by_submit brings a hand-built trace there); same-time jobs
  /// are submitted in stream order. Jobs are validated at admission, so
  /// run() throws bsld::Error on an empty stream, a job larger than the
  /// machine, invalid durations, or an id that is still live. All
  /// references must outlive run().
  Simulation(wl::JobStream& stream, core::SchedulingPolicy& policy,
             const power::PowerModel& power_model,
             const power::BetaTimeModel& time_model,
             SimulationConfig config = {});

  /// Registers a non-owning observer of this run's event stream, invoked
  /// after the default instruments, in registration order. Must be called
  /// before run() and outlive it.
  void add_observer(SimObserver& observer);

  /// Runs to completion and returns the full result. Single-shot: a second
  /// call throws.
  SimulationResult run();

  // SchedulerContext interface (now() also satisfies PmContext).
  [[nodiscard]] Time now() const override { return engine_.now(); }
  [[nodiscard]] const cluster::Machine& machine() const override {
    return machine_;
  }
  /// Valid for live jobs only — admitted and not yet retired from the
  /// window (every job a policy or manager can legitimately name is live).
  [[nodiscard]] const wl::Job& job(JobId id) const override;
  [[nodiscard]] const power::BetaTimeModel& time_model() const override {
    return time_model_;
  }
  void start_job(JobId id, const std::vector<CpuId>& cpus,
                 GearIndex gear) override;
  [[nodiscard]] std::vector<JobId> running_jobs() const override;
  [[nodiscard]] GearIndex running_gear(JobId id) const override;
  void boost_job(JobId id, GearIndex gear) override;

  // PmContext interface.
  [[nodiscard]] std::int32_t cpu_count() const override {
    return machine_.cpu_count();
  }
  [[nodiscard]] const power::PowerModel& power_model() const override {
    return power_model_;
  }
  void set_job_gear(JobId id, GearIndex gear) override;
  void release_job(JobId id, GearIndex gear) override;
  void schedule_timer(Time at) override;
  void emit(const pm::PmEvent& event) override;

  // JobResolver interface (batched observer delivery).
  [[nodiscard]] const wl::Job& job_at(
      std::uint64_t trace_index) const override;

 private:
  [[nodiscard]] std::uint64_t trace_index(JobId id) const;
  [[nodiscard]] RunningRec& running(JobId id);
  [[nodiscard]] const RunningRec& running(JobId id) const;
  /// Admits the next stream job, if any: validates, indexes, places it in
  /// the window and schedules its submit event. Called before the drain
  /// and after every popped submit, so exactly one submit is pending until
  /// the stream ends.
  void pump_submit();
  void finish_job(std::uint64_t global);
  /// Shared re-gearing path of boost_job (policy raise) and set_job_gear
  /// (power-manager throttle/raise): closes the current gear segment and
  /// re-times completion. Gated jobs only update their planned gear.
  void retime_job(JobId id, GearIndex gear, bool mark_boosted);
  /// Starts the job's current gear segment at `base`: schedules its
  /// completion and re-times the machine's expected end. Returns the
  /// requested time left.
  Time resume(std::uint64_t global, Time base);

  /// Invokes `hook` on every attached observer (defaults first, then
  /// add_observer order). Only for the immediate run_begin/run_end hooks;
  /// the mid-run stream goes through the batch (push_event / flush_events).
  template <typename Hook>
  void notify(Hook&& hook) {
    for (SimObserver* observer : chain_) hook(*observer);
  }

  /// Buffers one mid-run record; flushes when the batch is full.
  void push_event(BatchedEvent&& record) {
    batch_.push_back(std::move(record));
    if (batch_.size() >= kBatchCapacity) flush_events();
  }
  /// Delivers the buffered span to every observer in emission order, then
  /// retires finished front jobs from the window — eviction strictly
  /// follows delivery, so observers never see a dead trace index.
  void flush_events();

  /// Batched-dispatch span size: large enough to amortize the per-span
  /// virtual call, small enough to stay cache-resident.
  static constexpr std::size_t kBatchCapacity = 128;

  core::SchedulingPolicy& policy_;
  const power::PowerModel& power_model_;
  const power::BetaTimeModel& time_model_;
  SimulationConfig config_;
  pm::PowerManager* pm_ = nullptr;  ///< == config_.power_manager.

  wl::JobStream* stream_ = nullptr;  ///< The ingestion source.

  cluster::Machine machine_;
  Engine engine_;
  JobWindow window_;                ///< In-flight jobs by global index.
  util::IdMap<std::uint64_t> index_;  ///< Live JobId -> global.
  /// The finished job's CPUs for pm_->on_job_finish, reused across jobs.
  /// Nothing else writes it while the hook holds it and re-gears others.
  std::vector<CpuId> finish_cpus_;
  std::vector<BatchedEvent> batch_; ///< Pending observer records.
  std::vector<SimObserver*> observers_;             ///< add_observer order.
  std::vector<SimObserver*> chain_;                 ///< Full set during run().
  std::int64_t finished_ = 0;
  Time first_submit_ = 0;           ///< Submit of the first admitted job.
  Time last_end_ = 0;
  bool ran_ = false;
};

/// Convenience wrapper: wires the simulation and runs it.
SimulationResult run_simulation(wl::JobStream& stream,
                                core::SchedulingPolicy& policy,
                                const power::PowerModel& power_model,
                                const power::BetaTimeModel& time_model,
                                SimulationConfig config = {});

}  // namespace bsld::sim
