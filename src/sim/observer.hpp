/// \file observer.hpp
/// \brief The measurement seam of the simulator: sim::SimObserver.
///
/// The paper's whole evaluation (Figs. 3-9, Tables 1-3) is observational —
/// different views of one event stream. A SimObserver receives that stream
/// at the exact points sim::Simulation changes job state:
///
///   on_run_begin  once, before the first event;
///   on_submit     a job entered the system (before the policy sees it);
///   on_start      a job began executing at a gear;
///   on_gear_change a running job was raised mid-flight (boost_job);
///   on_finish     a job completed, with its fully-populated JobOutcome;
///   on_pm         the run's power manager acted (cap moves, throttles,
///                 gated admissions, sleep intervals — pm/event.hpp);
///   on_run_end    once, after the event queue drained.
///
/// All built-in measurement (per-job recording, aggregate BSLD/wait
/// statistics, energy metering, time-series traces) is implemented as
/// observers over this interface — see instruments.hpp — and downstream
/// code adds its own views via Simulation::add_observer without touching
/// the core loop. Observers are invoked synchronously on the simulation
/// thread, in registration order (defaults first), so a run's observation
/// sequence is deterministic: parallel sweeps over independent simulations
/// observe bit-identical streams per run.
///
/// Thread compatibility: observers (and the Instruments built on them)
/// are deliberately lock-free and unannotated — every observer instance
/// belongs to exactly one simulation, and a simulation runs entirely on
/// one sweep-worker thread. Mutable observer state is therefore
/// thread-confined, never shared; sharing one instance across concurrent
/// simulations is a contract violation, not a locking bug.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <variant>

#include "pm/event.hpp"
#include "util/types.hpp"
#include "workload/job.hpp"

namespace bsld::sim {

/// Resolves a global trace index to the job's trace record during batched
/// delivery. The simulation implements this over its live job window, so
/// observers can read job fields without the whole workload ever being
/// materialized. Resolution is only valid for indices carried by the
/// span currently being delivered — the referenced jobs are guaranteed live
/// for exactly that long (eviction happens after delivery returns).
class JobResolver {
 public:
  virtual ~JobResolver() = default;

  /// The trace record at 0-based stream position `trace_index`.
  [[nodiscard]] virtual const wl::Job& job_at(
      std::uint64_t trace_index) const = 0;
};

/// Everything recorded about one job's execution. Built by the simulator
/// when the job finishes and delivered through SimObserver::on_finish; the
/// JobRecorder instrument retains these as SimulationResult::jobs.
struct JobOutcome {
  JobId id = kNoJob;
  Time submit = 0;
  std::int32_t size = 0;
  Time run_time_top = 0;       ///< Trace runtime (at Ftop).
  Time start = kNoTime;
  Time end = kNoTime;
  GearIndex gear = 0;          ///< Gear assigned at start (Fig. 4 counts this).
  GearIndex final_gear = 0;    ///< Gear at completion (differs when boosted).
  bool boosted = false;        ///< Raised mid-flight (future-work extension).
  Time scaled_runtime = 0;     ///< Actual runtime (end - start).
  Time scaled_requested = 0;   ///< Requested time dilated by the start gear.
  double bsld = 1.0;           ///< Penalized BSLD (Eq. 6).

  [[nodiscard]] Time wait() const { return start - submit; }
};

/// Payload of SimObserver::on_run_begin. Carries no workload reference —
/// a streaming run has no materialized trace to hand out. Instruments that
/// pre-size per-job storage use job_count_hint and grow on demand when the
/// hint is unknown.
struct RunBeginEvent {
  std::string_view workload_name;     ///< Display name of the trace.
  std::int64_t job_count_hint = -1;   ///< Exact job count, or -1 unknown.
  std::int32_t cpus = 0;              ///< Effective machine size.
  std::size_t gear_count = 0;         ///< Size of the DVFS gear set.
  Time bsld_floor = 0;                ///< Th of the BSLD metric in force.
};

/// Payload of SimObserver::on_submit, fired before the policy reacts.
struct SubmitEvent {
  const wl::Job& job;              ///< Trace record of the submitted job.
  std::uint64_t trace_index = 0;   ///< Position in stream order.
  Time time = 0;                   ///< == job.submit.
};

/// Payload of SimObserver::on_start.
struct StartEvent {
  const wl::Job& job;              ///< Trace record of the started job.
  std::uint64_t trace_index = 0;   ///< Position in stream order.
  Time time = 0;                   ///< Start time (now).
  GearIndex gear = 0;              ///< Gear engaged at start.
  Time scaled_runtime = 0;         ///< Expected runtime at `gear`.
  Time scaled_requested = 0;       ///< Requested time dilated by `gear`.
};

/// Payload of SimObserver::on_gear_change (mid-flight boost). The closed
/// segment [time - segment_seconds, time) ran at `from`; execution
/// continues at `to`.
struct GearChangeEvent {
  JobId id = kNoJob;
  std::uint64_t trace_index = 0;   ///< Position in stream order.
  std::int32_t size = 0;           ///< CPUs held by the job.
  Time time = 0;                   ///< When the new gear was engaged.
  GearIndex from = 0;
  GearIndex to = 0;
  Time segment_seconds = 0;        ///< Wall seconds spent at `from`.
};

/// Payload of SimObserver::on_finish. `outcome` is complete (including the
/// penalized BSLD); the final gear segment [outcome.end -
/// final_segment_seconds, outcome.end) ran at outcome.final_gear.
struct FinishEvent {
  const JobOutcome& outcome;
  std::uint64_t trace_index = 0;   ///< Position in stream order.
  Time final_segment_seconds = 0;
};

/// Payload of SimObserver::on_run_end.
struct RunEndEvent {
  Time first_submit = 0;         ///< Submit time of the first trace job.
  Time makespan = 0;             ///< Last completion time.
  Time horizon = 0;              ///< max(makespan - first_submit, 1).
  std::int32_t cpus = 0;         ///< Effective machine size.
  std::int64_t jobs = 0;         ///< Jobs simulated.
  std::uint64_t events_processed = 0;
};

/// Value-form records of the batched event stream. The reference-carrying
/// payloads above are views valid only for the duration of one hook call;
/// these records store indices and values instead, so the simulation can
/// buffer a span of them and deliver it later (SimObserver::on_events).
/// The delivering JobResolver resolves trace_index back to the wl::Job.
struct SubmitRecord {
  std::uint64_t trace_index = 0;
  Time time = 0;
};

/// Value form of StartEvent (see SubmitRecord).
struct StartRecord {
  std::uint64_t trace_index = 0;
  Time time = 0;
  GearIndex gear = 0;
  Time scaled_runtime = 0;
  Time scaled_requested = 0;
};

/// Value form of FinishEvent: the outcome is carried by value so the
/// record outlives the simulator's transient per-job state.
struct FinishRecord {
  JobOutcome outcome;
  std::uint64_t trace_index = 0;
  Time final_segment_seconds = 0;
};

/// One buffered notification. GearChangeEvent and pm::PmEvent are already
/// flat value types and are stored verbatim. Relative order inside the
/// batch is exactly emission order — replay preserves the interleaving of
/// submits, starts, gear changes, finishes, and pm actions.
using BatchedEvent = std::variant<SubmitRecord, StartRecord, GearChangeEvent,
                                  FinishRecord, pm::PmEvent>;

/// Passive view over one simulation run. All hooks default to no-ops so
/// concrete observers override only what they measure. Observers are
/// single-run: Simulation::run() delivers exactly one on_run_begin /
/// on_run_end pair (built-in instruments reset themselves on on_run_begin,
/// so reusing one across runs observes only the latest).
///
/// Dispatch is batched: the simulation buffers the mid-run stream
/// (submit/start/gear-change/finish/pm) and delivers it in spans through
/// on_events — one virtual call per observer per span instead of one per
/// event. The default on_events replays the span through the per-event
/// virtuals below in emission order, so observers that only override
/// per-event hooks see exactly the stream they always did; high-volume
/// observers may override on_events itself to amortize dispatch.
/// Ordering contract: every buffered event is flushed before on_run_end,
/// and batching never reorders events — only delays delivery until the
/// simulation's next flush point. Hooks must not re-enter the simulation.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  virtual void on_run_begin(const RunBeginEvent& event) { (void)event; }
  virtual void on_submit(const SubmitEvent& event) { (void)event; }
  virtual void on_start(const StartEvent& event) { (void)event; }
  virtual void on_gear_change(const GearChangeEvent& event) { (void)event; }
  virtual void on_finish(const FinishEvent& event) { (void)event; }
  /// A power-management action (pm/event.hpp). Runs without a manager —
  /// or under `pm=none` — never deliver one.
  virtual void on_pm(const pm::PmEvent& event) { (void)event; }
  virtual void on_run_end(const RunEndEvent& event) { (void)event; }

  /// Batched delivery of `count` records in emission order. `jobs`
  /// resolves the records' trace indices; resolution is valid only during
  /// this call (a streaming simulation evicts delivered jobs afterwards).
  /// The default implementation replays each record through the matching
  /// per-event virtual.
  virtual void on_events(const JobResolver& jobs, const BatchedEvent* events,
                         std::size_t count);
};

}  // namespace bsld::sim
