#include "workload/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace bsld::wl {

namespace {

constexpr double kSecondsPerDay = 86400.0;

/// A small population of users, Zipf-ish activity (written to SWF as the
/// user field; the draw is part of the generator's random sequence).
constexpr std::int32_t kUsers = 64;

/// Relative arrival rate at absolute time t (daily cycle).
double daily_rate(double t, const ArrivalModel& arrival) {
  const double phase =
      2.0 * std::numbers::pi * (t / kSecondsPerDay - arrival.peak_hour / 24.0);
  return 1.0 + arrival.daily_amplitude * std::cos(phase);
}

std::int32_t sample_size(const SizeModel& model, std::int32_t cpus,
                         util::Rng& rng) {
  const std::int32_t cap = std::min(model.max_size, cpus);
  if (model.p_sequential > 0.0 && rng.bernoulli(model.p_sequential)) return 1;
  const double log2_size = rng.normal(model.log2_mean, model.log2_sigma);
  double size = std::exp2(std::clamp(log2_size, 0.0, 30.0));
  if (rng.bernoulli(model.p_power_of_two)) {
    size = std::exp2(std::round(std::clamp(log2_size, 0.0, 30.0)));
  }
  auto result = static_cast<std::int32_t>(std::lround(size));
  result = std::clamp(result, std::max<std::int32_t>(model.min_size, 1), cap);
  return result;
}

/// `weights` are the model's class weights and `total` their
/// Rng::discrete_total(), both built once per stream.
Time sample_runtime(const RuntimeModel& model,
                    const std::vector<double>& weights, double total,
                    util::Rng& rng) {
  const auto& cls = model.classes[rng.discrete(weights, total)];
  const double runtime = rng.lognormal(cls.mu, cls.sigma);
  const auto rounded = static_cast<Time>(std::llround(runtime));
  return std::clamp<Time>(rounded, model.min_runtime, model.max_runtime);
}

Time sample_requested(const EstimateModel& model, Time run_time,
                      util::Rng& rng) {
  Time requested;
  if (rng.bernoulli(model.p_exact)) {
    requested = run_time;
  } else {
    const double factor =
        std::max(1.0, rng.lognormal(model.factor_mu, model.factor_sigma));
    requested = static_cast<Time>(std::llround(
        static_cast<double>(run_time) * factor));
  }
  if (model.round_to_nice) requested = round_to_nice_request(requested);
  requested = std::min(requested, model.max_requested);
  return std::max(requested, run_time);  // estimates are upper bounds
}

}  // namespace

Time round_to_nice_request(Time seconds) {
  if (seconds <= 0) return 1;
  auto round_up = [](Time value, Time quantum) {
    return ((value + quantum - 1) / quantum) * quantum;
  };
  if (seconds <= 2 * 3600) return round_up(seconds, 300);
  if (seconds <= 6 * 3600) return round_up(seconds, 1800);
  return round_up(seconds, 3600);
}

SyntheticJobStream::SyntheticJobStream(WorkloadSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)) {
  BSLD_REQUIRE(spec_.cpus > 0, "generate(): cpus must be positive");
  BSLD_REQUIRE(spec_.num_jobs > 0, "generate(): num_jobs must be positive");
  BSLD_REQUIRE(spec_.arrival.load_target > 0.0,
               "generate(): load_target must be positive");
  BSLD_REQUIRE(!spec_.runtime.classes.empty(),
               "generate(): runtime mixture needs at least one class");
  BSLD_REQUIRE(spec_.arrival.daily_amplitude >= 0.0 &&
                   spec_.arrival.daily_amplitude < 1.0,
               "generate(): daily_amplitude must be in [0, 1)");

  util::Rng root(seed ^ util::hash_label(spec_.name));
  size_rng_ = root.split("size");
  runtime_rng_ = root.split("runtime");
  estimate_rng_ = root.split("estimate");
  arrival_rng_ = root.split("arrival");
  user_rng_ = root.split("user");

  // Sizing pass: the arrival process is scaled to the target offered load,
  // which needs the trace's total work content before the first job can be
  // emitted. Replay *clones* of the work-content streams (split streams are
  // concern-independent, so the estimate/arrival/user streams are not
  // consumed) and keep only the running sum — draws, not storage, so the
  // stream stays O(1) in memory at any num_jobs.
  for (const RuntimeClass& cls : spec_.runtime.classes) {
    runtime_weights_.push_back(cls.weight);
  }
  runtime_total_ = util::Rng::discrete_total(runtime_weights_);

  util::Rng size_probe = size_rng_;
  util::Rng runtime_probe = runtime_rng_;
  double total_core_seconds = 0.0;
  for (std::int64_t i = 0; i < spec_.num_jobs; ++i) {
    const std::int32_t size = sample_size(spec_.size, spec_.cpus, size_probe);
    const Time runtime = sample_runtime(spec_.runtime, runtime_weights_,
                                        runtime_total_, runtime_probe);
    total_core_seconds +=
        static_cast<double>(size) * static_cast<double>(runtime);
  }

  // Trace span implied by the load target, and the resulting mean gap.
  const double span =
      total_core_seconds /
      (static_cast<double>(spec_.cpus) * spec_.arrival.load_target);
  mean_gap_ = span / static_cast<double>(spec_.num_jobs);

  user_weights_.resize(kUsers);
  for (std::int32_t u = 0; u < kUsers; ++u) {
    user_weights_[static_cast<std::size_t>(u)] =
        1.0 / static_cast<double>(u + 1);
  }
  user_total_ = util::Rng::discrete_total(user_weights_);
}

std::optional<Job> SyntheticJobStream::next() {
  if (emitted_ >= spec_.num_jobs) return std::nullopt;

  Job job;
  job.id = static_cast<JobId>(emitted_ + 1);
  job.size = sample_size(spec_.size, spec_.cpus, size_rng_);
  job.run_time = sample_runtime(spec_.runtime, runtime_weights_,
                                runtime_total_, runtime_rng_);
  job.requested_time =
      sample_requested(spec_.estimate, job.run_time, estimate_rng_);

  job.submit = static_cast<Time>(std::llround(clock_));
  double gap;
  if (arrival_rng_.bernoulli(spec_.arrival.burst_probability)) {
    gap = arrival_rng_.exponential(spec_.arrival.burst_gap_mean);
  } else {
    // Thin the base rate by the daily cycle at the current time. The
    // burst jobs contribute little to the span, so re-scale the base gap
    // to keep the overall mean near `mean_gap_`.
    const double base =
        (mean_gap_ - spec_.arrival.burst_probability *
                         spec_.arrival.burst_gap_mean) /
        std::max(1e-9, 1.0 - spec_.arrival.burst_probability);
    gap = arrival_rng_.exponential(std::max(1.0, base)) /
          daily_rate(clock_, spec_.arrival);
  }
  clock_ += gap;

  job.user_id = static_cast<std::int32_t>(
      user_rng_.discrete(user_weights_, user_total_));
  ++emitted_;
  // Gaps are non-negative and ids ascend, so emission order is already the
  // (submit, id) order generate() pins with its final sort.
  return job;
}

Workload generate(const WorkloadSpec& spec, std::uint64_t seed) {
  SyntheticJobStream stream(spec, seed);
  return materialize(stream);
}

}  // namespace bsld::wl
