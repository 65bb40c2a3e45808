/// \file synthetic.hpp
/// \brief Statistical workload generator.
///
/// Substitute for the Parallel Workload Archive logs (see DESIGN.md §3):
/// the archive is online-only, so each of the paper's five traces is
/// replaced by a generator profile matched on the moments that drive every
/// result in the paper — offered load, job-size mix, runtime mix, and the
/// user's requested-time overestimation. The model family follows the
/// classic workload-modelling literature (Lublin/Feitelson-style):
///
///  * arrivals: exponential gaps modulated by a daily cycle, plus a
///    burst component (a fraction of jobs arrives in back-to-back clumps);
///  * sizes: a sequential-job fraction and a log2-normal parallel part with
///    optional power-of-two snapping and a minimum-size floor (SDSC-Blue
///    allocates at least 8 CPUs per job);
///  * runtimes: a mixture of lognormal classes (short/medium/long);
///  * estimates: requested time = runtime x lognormal overestimation
///    factor, rounded up to "nice" values, capped by a site limit —
///    mirroring the Mu'alem/Feitelson observations EASY backfilling relies
///    on.
///
/// Generation is fully deterministic given (spec, seed).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"
#include "workload/job.hpp"
#include "workload/stream.hpp"

namespace bsld::wl {

/// Arrival process parameters.
struct ArrivalModel {
  /// Target offered load: total core-seconds / (cpus * trace span). The
  /// central calibration knob per archive profile.
  double load_target = 0.7;
  /// Fraction of jobs arriving as part of a burst (tiny gap to predecessor).
  double burst_probability = 0.25;
  /// Mean gap inside a burst, seconds.
  double burst_gap_mean = 15.0;
  /// Relative amplitude of the daily arrival-rate cycle in [0, 1).
  double daily_amplitude = 0.5;
  /// Hour of day (0-24) at which the arrival rate peaks.
  double peak_hour = 14.0;

  friend bool operator==(const ArrivalModel&, const ArrivalModel&) = default;
};

/// Job-size distribution parameters.
struct SizeModel {
  double p_sequential = 0.3;      ///< Fraction of 1-CPU jobs.
  std::int32_t min_size = 1;      ///< Floor for parallel jobs (Blue: 8).
  std::int32_t max_size = 1 << 30;///< Cap (clamped to machine later).
  double log2_mean = 3.0;         ///< Mean of log2(size) for parallel jobs.
  double log2_sigma = 1.5;        ///< Stddev of log2(size).
  double p_power_of_two = 0.6;    ///< Probability of snapping to 2^k.

  friend bool operator==(const SizeModel&, const SizeModel&) = default;
};

/// One lognormal runtime class of the mixture.
struct RuntimeClass {
  double weight = 1.0;  ///< Mixture weight (normalized internally).
  double mu = 6.0;      ///< Mean of ln(runtime seconds).
  double sigma = 1.0;   ///< Stddev of ln(runtime seconds).

  friend bool operator==(const RuntimeClass&, const RuntimeClass&) = default;
};

/// Runtime mixture parameters.
struct RuntimeModel {
  /// Defaults to one medium class (mu=6 ~ 400 s, sigma=1).
  std::vector<RuntimeClass> classes = std::vector<RuntimeClass>(1);
  Time min_runtime = 1;
  Time max_runtime = 36 * 3600;

  friend bool operator==(const RuntimeModel&, const RuntimeModel&) = default;
};

/// Requested-time (user estimate) model.
struct EstimateModel {
  double p_exact = 0.10;        ///< Estimate equals runtime (rounded up).
  double factor_mu = 1.0;       ///< ln of the overestimation factor: mean.
  double factor_sigma = 0.9;    ///< ln of the overestimation factor: stddev.
  bool round_to_nice = true;    ///< Round estimates up to human-ish values.
  Time max_requested = 36 * 3600;  ///< Site limit on estimates.

  friend bool operator==(const EstimateModel&, const EstimateModel&) = default;
};

/// Complete generator profile.
struct WorkloadSpec {
  std::string name = "synthetic";
  std::int32_t cpus = 128;
  std::int64_t num_jobs = 5000;
  ArrivalModel arrival;
  SizeModel size;
  RuntimeModel runtime;
  EstimateModel estimate;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

/// Lazy form of generate(): jobs are drawn on demand, already in
/// (submit, id) order, with O(1) memory regardless of num_jobs — the
/// arrival process emits non-decreasing submit times and ids ascend, so no
/// sort is needed. The constructor validates the spec (same errors as
/// generate()) and runs one sizing pass over clones of the work-content
/// RNG streams to calibrate the arrival rate to the offered-load target;
/// that pass stores nothing, so a 10^7-job trace costs draws, not gigabytes.
///
/// Bit-compatibility contract: materialize(SyntheticJobStream(spec, seed))
/// equals generate(spec, seed) exactly, job for job. generate() is
/// implemented as precisely that drain, so the contract cannot drift.
class SyntheticJobStream final : public JobStream {
 public:
  SyntheticJobStream(WorkloadSpec spec, std::uint64_t seed);

  std::optional<Job> next() override;
  [[nodiscard]] const std::string& name() const override { return spec_.name; }
  [[nodiscard]] std::int32_t cpus() const override { return spec_.cpus; }
  [[nodiscard]] std::int64_t size_hint() const override {
    return spec_.num_jobs;
  }

 private:
  WorkloadSpec spec_;
  util::Rng size_rng_;
  util::Rng runtime_rng_;
  util::Rng estimate_rng_;
  util::Rng arrival_rng_;
  util::Rng user_rng_;
  std::vector<double> runtime_weights_;  ///< Runtime-class mixture weights.
  double runtime_total_ = 0.0;           ///< Their discrete_total().
  std::vector<double> user_weights_;     ///< Zipf activity per user.
  double user_total_ = 0.0;              ///< Their discrete_total().
  double mean_gap_ = 0.0;  ///< From the sizing pass (offered-load target).
  double clock_ = 0.0;     ///< Arrival-process time; next submit = round().
  std::int64_t emitted_ = 0;
};

/// Generates a workload from `spec` with deterministic randomness derived
/// from `seed`. Jobs are sorted by submit time, ids 1..num_jobs, and always
/// satisfy: 1 <= size <= cpus, run_time >= 1, requested_time >= run_time.
/// Throws bsld::Error on invalid specs. Equivalent to draining a
/// SyntheticJobStream — materialize when you need random access, stream
/// when you do not.
Workload generate(const WorkloadSpec& spec, std::uint64_t seed);

/// Rounds a requested time up to a "nice" human value: multiples of 5 min
/// below 2 h, of 30 min below 6 h, of 1 h above. Exposed for tests.
Time round_to_nice_request(Time seconds);

}  // namespace bsld::wl
