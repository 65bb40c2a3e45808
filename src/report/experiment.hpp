/// \file experiment.hpp
/// \brief One fully-specified simulation run of the paper's evaluation —
/// and the single entry point every example, bench and test uses to
/// execute it reproducibly.
///
/// A RunSpec is declarative and open on every axis:
///   * workload — any wl::WorkloadSource (canonical archive model, SWF
///     file, or inline generator spec; workload/source.hpp);
///   * policy   — any core::PolicySpec resolved by name through
///     core::PolicyRegistry (core/policy_registry.hpp), so downstream
///     policy plugins flow through unchanged;
///   * platform — gear set, power model calibration and the beta time
///     model, all serializable;
///   * power management — any pm::PmSpec resolved by name through
///     pm::PowerManagerRegistry (pm/registry.hpp); "none" (the default)
///     is bit-identical to running without a manager;
///   * measurement — extra instruments by sim::InstrumentRegistry name
///     plus a retain_jobs switch for aggregate-only runs.
/// It round-trips through util::Config (parse/to_config) byte-identically,
/// so a run is savable, diffable and replayable from a file
/// (`bsldsim --spec run.conf`), and key() doubles as the deduplication key
/// for report::SweepRunner grids.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/gears.hpp"
#include "core/policy_registry.hpp"
#include "pm/spec.hpp"
#include "power/power_model.hpp"
#include "sim/instrument_registry.hpp"
#include "sim/simulation.hpp"
#include "util/config.hpp"
#include "util/sampler.hpp"
#include "util/thread_annotations.hpp"
#include "workload/source.hpp"

namespace bsld::report {

/// Declarative description of a run.
struct RunSpec {
  wl::WorkloadSource workload;       ///< Where the trace comes from.
  double size_scale = 1.0;           ///< 1.2 = "20% larger system" (§5.2).
  core::PolicySpec policy;           ///< Scheduler + DVFS, by name.
  cluster::GearSet gears = cluster::paper_gear_set();  ///< DVFS operating points.
  double beta = 0.5;                 ///< Paper's beta (Eq. 5).
  power::PowerModelConfig power;     ///< Paper defaults.
  /// Extension (paper §7 future work): per-job beta drawn uniformly from
  /// [first, second] instead of the single platform beta.
  std::optional<std::pair<double, double>> per_job_beta;
  /// Power management, by pm::PowerManagerRegistry name plus tunables.
  /// The default ("none") is bit-identical to running without a manager.
  pm::PmSpec pm;
  /// Extra measurement instruments attached to the run, by
  /// sim::InstrumentRegistry name (e.g. "wait-trace", "utilization");
  /// unknown names fail at parse time, listing what is registered.
  std::vector<std::string> instruments;
  /// Keep the per-job JobOutcome vector in the result (sim::SimulationConfig
  /// equivalent). Off = streaming aggregate-only runs with O(1) memory.
  bool retain_jobs = true;
  /// Ignored: every run streams. This selected the streaming path while a
  /// materialized one existed, and stays only so existing callers that
  /// assign it keep compiling. It takes no part in to_config() or key();
  /// parse() accepts a legacy `stream` key and drops it.
  bool stream = false;
  /// Time-series instrument sampling (wait-trace, utilization): the
  /// default plan retains every point; a non-zero cap bounds retention at
  /// O(cap) while staying exact below it.
  util::SamplePlan sample;

  /// Reads a spec from its serialized form. Accepts partial configs —
  /// missing keys keep their defaults. Throws bsld::Error on unknown
  /// workload kinds, archive names, policy names, bad values or unread keys.
  static RunSpec parse(const util::Config& config);

  /// Canonical serialized form: parse(to_config()) == *this (up to the
  /// ignored `stream` field) and re-serializing the parsed spec is
  /// byte-identical.
  [[nodiscard]] util::Config to_config() const;

  /// to_config() rendered as text — the spec's identity. SweepRunner uses
  /// it to deduplicate identical runs inside a grid. Memoized: the first
  /// call serializes, later calls return the cached text, so a grid that
  /// keys the same specs repeatedly (SweepRunner dedup + shard + in-flight
  /// coalescing) pays the serialization once. Mutating a field after key()
  /// leaves the cache stale — treat a spec as frozen once it has been keyed
  /// (copy-assignment resets the copy's cache, so the common tweak-a-copy
  /// pattern stays safe). Safe to call from several threads at once.
  [[nodiscard]] const std::string& key() const;

  /// "CTC x1.2 EASY BSLD<=2,WQ<=0" — derived from the spec's components
  /// (wl::source_label + core::policy_label), for tables and logs.
  [[nodiscard]] std::string label() const;

  friend bool operator==(const RunSpec&, const RunSpec&) = default;

  /// key() memo. A distinct type so the defaulted operator== above ignores
  /// it (two specs are equal regardless of which has been keyed) and so
  /// copy-assignment drops the cached text instead of carrying it into a
  /// copy that is about to be tweaked. key() fills `value` under `mutex`,
  /// so threads that key one shared spec concurrently agree on one text;
  /// once filled it is never written again until the spec is assigned.
  struct KeyCache {
    KeyCache() = default;
    KeyCache(const KeyCache&) noexcept {}
    KeyCache& operator=(const KeyCache&) noexcept {
      value.clear();
      return *this;
    }
    KeyCache(KeyCache&& other) noexcept : value(std::move(other.value)) {}
    KeyCache& operator=(KeyCache&& other) noexcept {
      value = std::move(other.value);
      return *this;
    }
    mutable util::Mutex mutex;
    mutable std::string value;  ///< Empty = not yet computed.
    friend bool operator==(const KeyCache&, const KeyCache&) { return true; }
  };
  KeyCache key_cache;  ///< Internal; managed by key().
};

/// Every RunSpec key (util::ConfigCodec), through the codecs of its parts;
/// optional fields are written only when set or not the default. Reading
/// also checks instrument names, drops a legacy `stream` key and fails on
/// a key it did not read.
void bind_config(util::ConfigCodec& codec, RunSpec& spec);

/// Spec + everything the run produced.
///
/// The simulation payload and the instruments are immutable once the run
/// finishes, so both are shared (not copied) across the grid slots a
/// deduplicated SweepRunner run fans out to: copying a RunResult is O(1)
/// in payload size, which is what keeps fanout delivery off the sweep's
/// critical path even for retained-jobs runs with thousands of outcomes.
struct RunResult {
  RunSpec spec;
  /// The instruments spec.instruments named, in spec order, holding their
  /// captured measurement.
  std::vector<std::shared_ptr<sim::Instrument>> instruments;

  RunResult() = default;
  RunResult(RunSpec spec_in, sim::SimulationResult sim_in,
            std::vector<std::shared_ptr<sim::Instrument>> instruments_in);

  /// The simulation payload (aggregates + per-job outcomes). A
  /// default-constructed result yields an empty payload, never a crash.
  [[nodiscard]] const sim::SimulationResult& sim() const;

  /// Installs/replaces the payload. The only writers are run_one() /
  /// run_workload() and the result cache's deserializer; everything
  /// downstream reads through sim().
  void set_sim(sim::SimulationResult value);

  /// The instrument registered under `name`, or nullptr. Use
  /// instrument_as<T>() for the concrete type.
  [[nodiscard]] const sim::Instrument* instrument(
      std::string_view name) const;

 private:
  /// const payload behind a shared_ptr: slots that alias it can never
  /// mutate each other's view, and the last owner frees it exactly once.
  std::shared_ptr<const sim::SimulationResult> sim_;
};

/// Typed instrument lookup: the WaitQueueTrace of a run is
/// `instrument_as<sim::WaitQueueTrace>(result, "wait-trace")`.
template <typename T>
const T* instrument_as(const RunResult& result, std::string_view name) {
  return dynamic_cast<const T*>(result.instrument(name));
}

/// Executes one spec: opens spec.workload as a wl::JobStream, applies the
/// machine scaling and per-job beta sampling as the jobs stream past,
/// builds the gear set / power / time models and the policy (via the
/// registry), and simulates. The trace is never materialized; with
/// retain_jobs off the run performs no O(jobs) allocation end to end.
/// Deterministic: equal specs give bit-identical results.
RunResult run_one(const RunSpec& spec);

/// run_one() for callers that already hold a workload (e.g. hand-written
/// job lists): stable-sorts it by submit (wl::sort_by_submit) and streams
/// it through the same path. spec.workload only seeds per-job beta draws.
RunResult run_workload(wl::Workload workload, const RunSpec& spec);

/// Energy of `run` normalized to `baseline` (paper's Figs. 3/7/8 y-axis).
struct NormalizedEnergy {
  double computational = 1.0;  ///< Eidle = 0 panel.
  double total = 1.0;          ///< Eidle = low panel.
};
NormalizedEnergy normalized_energy(const sim::SimulationResult& run,
                                   const sim::SimulationResult& baseline);

}  // namespace bsld::report
