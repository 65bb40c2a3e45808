/// \file instruments.hpp
/// \brief Composable measurement instruments built on sim::SimObserver.
///
/// Every number the pre-observer Simulation assembled inline is produced
/// here instead, as independent observers over the event stream:
///
///  * JobRecorder           — the per-job JobOutcome vector, in trace order;
///  * AggregateAccumulator  — avg BSLD/wait, reduced/boosted counts,
///    jobs-per-gear, makespan — incrementally, with no per-job storage;
///  * EnergyProbe           — the power::EnergyMeter fed per gear segment;
///  * WaitQueueTrace        — Fig. 6's per-job wait series plus the wait
///    queue depth over time;
///  * UtilizationTrace      — busy cores / utilization / active power over
///    time (piecewise-constant between events).
///
/// An Instrument is an observer with a name and a CSV rendering, so the
/// sim::InstrumentRegistry can construct them by string key and sinks can
/// stream their output without knowing concrete types; typed accessors
/// remain available via instrument_as<T>().
///
/// Each instrument walks the delivered spans of value records once and
/// picks the record kinds it measures with std::get_if; job fields the
/// records do not carry (submit time, size) are read through the
/// JobResolver. How the stream is cut into spans never changes a
/// measurement.
///
/// The time-series instruments (WaitQueueTrace, UtilizationTrace) accept a
/// util::SamplePlan so streaming million-job runs retain O(cap) points
/// instead of O(jobs). Every plan goes through the same sampler; the
/// default plan (cap == 0) keeps every point, and a non-zero cap is exact
/// whenever the series fits under it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "power/energy_meter.hpp"
#include "power/power_model.hpp"
#include "sim/observer.hpp"
#include "util/id_map.hpp"
#include "util/sampler.hpp"

namespace bsld::sim {

/// A named observer whose captured measurement renders to CSV. The
/// string-keyed counterpart of core::SchedulingPolicy: the unit the
/// InstrumentRegistry constructs and report::RunSpec::instruments selects.
class Instrument : public SimObserver {
 public:
  /// Registry key / display name ("jobs", "wait-trace", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Serializes the captured measurement as CSV (header row + data rows).
  virtual void write_csv(std::ostream& out) const = 0;

  /// Data rows the instrument captured (the CSV body size), for cheap
  /// summaries without rendering. Override when the count is known;
  /// defaults to 0 ("unreported").
  [[nodiscard]] virtual std::size_t rows() const { return 0; }
};

/// Retains the full JobOutcome vector in trace (submit) order — the
/// pre-observer SimulationResult::jobs, now opt-out via retain_jobs=false.
class JobRecorder final : public Instrument {
 public:
  [[nodiscard]] std::string name() const override { return "jobs"; }
  void write_csv(std::ostream& out) const override;
  [[nodiscard]] std::size_t rows() const override { return jobs_.size(); }

  void on_run_begin(const RunBeginEvent& event) override;
  void on_events(const JobResolver& jobs, const BatchedEvent* events,
                 std::size_t count) override;

  [[nodiscard]] const std::vector<JobOutcome>& jobs() const { return jobs_; }
  /// Moves the recorded vector out (for SimulationResult assembly).
  [[nodiscard]] std::vector<JobOutcome> take() { return std::move(jobs_); }

 private:
  std::vector<JobOutcome> jobs_;  ///< Indexed by trace position.
};

/// Incremental aggregates with O(1) per-job work and no per-job storage.
///
/// Bit-identity contract: avg_bsld() reproduces the trace-order naive
/// double summation of the retained-jobs path exactly, even though jobs
/// finish out of trace order — finished BSLDs pass through a reorder
/// buffer and are added in trace order. The buffer is a grow-only ring
/// indexed by trace index, sized to the distance from the oldest unfinished
/// job to the newest finished one (the span the job window keeps resident),
/// so it stops allocating once warm. Wait times are integral seconds and
/// are summed exactly in an int64, which equals the double summation for
/// any realistic horizon.
class AggregateAccumulator final : public Instrument {
 public:
  [[nodiscard]] std::string name() const override { return "aggregates"; }
  void write_csv(std::ostream& out) const override;
  [[nodiscard]] std::size_t rows() const override { return 1; }

  void on_run_begin(const RunBeginEvent& event) override;
  /// Finishes and pm actions (the pm counters below).
  void on_events(const JobResolver& jobs, const BatchedEvent* events,
                 std::size_t count) override;

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double avg_bsld() const;
  [[nodiscard]] double avg_wait() const;
  [[nodiscard]] std::int64_t reduced_jobs() const { return reduced_; }
  [[nodiscard]] std::int64_t boosted_jobs() const { return boosted_; }
  [[nodiscard]] const std::vector<std::int64_t>& jobs_per_gear() const {
    return jobs_per_gear_;
  }
  [[nodiscard]] Time makespan() const { return makespan_; }

  // Power-management accounting (all zero when no manager ran; the CSV
  // shape is unchanged so pm=none output stays byte-identical).
  /// Events of `kind` observed this run.
  [[nodiscard]] std::int64_t pm_events(pm::PmEventKind kind) const;
  /// Seconds jobs spent power-gated (sum of kRelease durations).
  [[nodiscard]] double gated_seconds() const { return gated_seconds_; }
  /// Core-seconds spent in sleep C-states (sum over kSleepInterval).
  [[nodiscard]] double sleep_core_seconds() const {
    return sleep_core_seconds_;
  }
  /// Seconds of wake latency charged to allocations (sum over kWake).
  [[nodiscard]] double wake_delay_seconds() const {
    return wake_delay_seconds_;
  }

 private:
  std::int64_t count_ = 0;
  double bsld_sum_ = 0.0;
  std::int64_t wait_sum_ = 0;
  std::int64_t reduced_ = 0;
  std::int64_t boosted_ = 0;
  std::vector<std::int64_t> jobs_per_gear_;
  GearIndex top_gear_ = 0;
  Time makespan_ = 0;
  /// A finished BSLD waiting for every earlier trace index.
  struct PendingBsld {
    double bsld = 0.0;
    bool present = false;
  };
  static constexpr std::size_t kInitialPending = 64;
  /// Folds one finish into the counts and the BSLD reorder buffer.
  void add_finish(const FinishRecord& finish);
  /// Doubles the ring until `trace_index` fits, keeping every entry.
  void grow_pending(std::uint64_t trace_index);

  /// Trace-order reorder buffer for the BSLD sum: trace index i waits in
  /// slot i mod pending_bsld_.size() (a power of two), for i in
  /// (next_index_, next_index_ + size).
  std::uint64_t next_index_ = 0;
  std::vector<PendingBsld> pending_bsld_ =
      std::vector<PendingBsld>(kInitialPending);
  std::size_t pending_count_ = 0;
  std::map<pm::PmEventKind, std::int64_t> pm_events_;
  double gated_seconds_ = 0.0;
  double sleep_core_seconds_ = 0.0;
  double wake_delay_seconds_ = 0.0;
};

/// Drives a power::EnergyMeter from gear segments (start..boost..finish)
/// and takes the EnergyReport over the run's horizon at on_run_end.
class EnergyProbe final : public Instrument {
 public:
  /// `model` must outlive the probe.
  explicit EnergyProbe(const power::PowerModel& model);

  [[nodiscard]] std::string name() const override { return "energy"; }
  void write_csv(std::ostream& out) const override;
  [[nodiscard]] std::size_t rows() const override { return 1; }

  void on_run_begin(const RunBeginEvent& event) override;
  /// Gear segments close at gear changes and finishes; sleep intervals
  /// (kSleepInterval) reprice idle time below idle power, and other pm
  /// events carry no energy.
  void on_events(const JobResolver& jobs, const BatchedEvent* events,
                 std::size_t count) override;
  void on_run_end(const RunEndEvent& event) override;

  /// Valid after on_run_end.
  [[nodiscard]] const power::EnergyReport& report() const { return report_; }
  /// Busy share of cpus * horizon; valid after on_run_end.
  [[nodiscard]] double utilization() const { return utilization_; }
  [[nodiscard]] const power::EnergyMeter& meter() const { return *meter_; }

 private:
  const power::PowerModel& model_;
  std::optional<power::EnergyMeter> meter_;  ///< Recreated per run.
  power::EnergyReport report_;
  double utilization_ = 0.0;
};

/// Fig. 6's instrument: the per-job wait series in trace order, plus the
/// wait-queue depth over time (one sample per submit/start timestamp;
/// same-time changes coalesce into the final depth at that instant).
///
/// Both series go through the plan's samplers: waits are sampled over
/// start order and re-sorted to trace order at on_run_end (row labels keep
/// the true trace index), and depth samples are committed through an "open
/// sample" that coalesces same-time changes before entering the sampler.
/// The default plan keeps every point; below a non-zero cap both series
/// are exact.
class WaitQueueTrace final : public Instrument {
 public:
  struct JobWait {
    Time submit = 0;
    Time start = 0;
    Time wait = 0;
    std::int64_t depth_after_submit = 0;  ///< Queue depth incl. this job.
  };
  struct DepthSample {
    Time time = 0;
    std::int64_t depth = 0;
  };

  explicit WaitQueueTrace(util::SamplePlan plan = {});

  [[nodiscard]] std::string name() const override { return "wait-trace"; }
  /// One row per retained job in trace order: job_index, submit_s, start_s,
  /// wait_s, queue_depth_after_submit. The finer-grained depth() series
  /// (sampled at starts too) stays a typed accessor.
  void write_csv(std::ostream& out) const override;
  [[nodiscard]] std::size_t rows() const override { return waits_.size(); }

  void on_run_begin(const RunBeginEvent& event) override;
  void on_events(const JobResolver& jobs, const BatchedEvent* events,
                 std::size_t count) override;
  void on_run_end(const RunEndEvent& event) override;

  /// Retained per-job waits in trace order (complete after the run);
  /// job_indices() labels each row.
  [[nodiscard]] const std::vector<JobWait>& waits() const { return waits_; }
  /// Trace index of each waits() row, ascending (complete after the run).
  /// With the default plan every started job has a row, so row i is trace
  /// index i.
  [[nodiscard]] const std::vector<std::uint64_t>& job_indices() const {
    return wait_rows_;
  }
  /// Queue depth over time, one sample per distinct event timestamp
  /// (complete after the run).
  [[nodiscard]] const std::vector<DepthSample>& depth() const {
    return depth_;
  }

 private:
  void sample(Time time);

  util::SamplePlan plan_;
  std::vector<JobWait> waits_;
  std::vector<std::uint64_t> wait_rows_;
  std::vector<DepthSample> depth_;
  std::int64_t queued_ = 0;
  /// Submitted, not yet started, keyed by trace index.
  util::IdMap<JobWait> pending_;
  util::SeriesSampler<std::pair<std::uint64_t, JobWait>> wait_sampler_;
  util::SeriesSampler<DepthSample> depth_sampler_;
  DepthSample open_{};
  bool has_open_ = false;
};

/// Utilization / active power over time: piecewise-constant between
/// events, one sample per distinct start/boost/finish timestamp, committed
/// through the same open-sample scheme as WaitQueueTrace::depth() —
/// same-time coalescing happens before the sampler sees a point, so
/// retention below a SamplePlan cap is exact.
class UtilizationTrace final : public Instrument {
 public:
  struct Sample {
    Time time = 0;
    std::int64_t busy_cores = 0;
    double utilization = 0.0;    ///< busy_cores / machine size.
    double power_watts = 0.0;    ///< Active power of the busy cores.
  };

  /// `model` must outlive the trace.
  explicit UtilizationTrace(const power::PowerModel& model,
                            util::SamplePlan plan = {});

  [[nodiscard]] std::string name() const override { return "utilization"; }
  /// One row per sample: time_s, busy_cores, utilization, power_watts.
  void write_csv(std::ostream& out) const override;
  [[nodiscard]] std::size_t rows() const override { return samples_.size(); }

  void on_run_begin(const RunBeginEvent& event) override;
  void on_events(const JobResolver& jobs, const BatchedEvent* events,
                 std::size_t count) override;
  void on_run_end(const RunEndEvent& event) override;

  /// Retained samples in time order (complete after the run).
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }

 private:
  void sample(Time time);

  const power::PowerModel& model_;
  util::SamplePlan plan_;
  std::vector<Sample> samples_;
  std::int64_t busy_ = 0;
  double power_ = 0.0;
  std::int32_t cpus_ = 0;
  util::SeriesSampler<Sample> sampler_;
  Sample open_{};
  bool has_open_ = false;
};

/// Records every power-management event of the run verbatim — cap moves,
/// throttles, gated admissions, sleep intervals (pm/event.hpp). Empty
/// under pm=none; the registry key is "pm-trace".
class PmTrace final : public Instrument {
 public:
  [[nodiscard]] std::string name() const override { return "pm-trace"; }
  /// One row per event: time_s, kind, job, cpu_count, gear_from, gear_to,
  /// watts, aux_watts, seconds, sleep_state.
  void write_csv(std::ostream& out) const override;
  [[nodiscard]] std::size_t rows() const override { return events_.size(); }

  void on_run_begin(const RunBeginEvent& event) override;
  void on_events(const JobResolver& jobs, const BatchedEvent* events,
                 std::size_t count) override;

  [[nodiscard]] const std::vector<pm::PmEvent>& events() const {
    return events_;
  }

 private:
  std::vector<pm::PmEvent> events_;
};

}  // namespace bsld::sim
