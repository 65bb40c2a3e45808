#include "report/experiment.hpp"

#include <cmath>
#include <sstream>

#include "pm/registry.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "workload/stream.hpp"

namespace bsld::report {

void bind_config(util::ConfigCodec& codec, RunSpec& spec) {
  wl::bind_config(codec, spec.workload);
  // Checked on the whole spec, not the workload group: bsldsim reads that
  // group alone while `--jobs 0` waits for `--workload` to name an SWF file.
  codec.check(spec.workload.kind != wl::WorkloadSource::Kind::kArchive ||
                  spec.workload.jobs > 0,
              "workload.jobs", "must be > 0 on an archive source");
  codec.field("scale", spec.size_scale);
  codec.check(spec.size_scale > 0.0, "scale", "must be > 0");
  core::bind_config(codec, spec.policy);
  cluster::bind_config(codec, spec.gears);
  codec.field("time.beta", spec.beta);
  codec.check(spec.beta >= 0.0 && spec.beta <= 1.0, "time.beta",
              "must be in [0, 1]");
  power::bind_config(codec, spec.power);
  std::optional<std::vector<double>> range;
  if (spec.per_job_beta) {
    range = {spec.per_job_beta->first, spec.per_job_beta->second};
  }
  codec.optional("beta.per_job", range);
  if (range) {
    codec.check(range->size() == 2 && 0.0 <= (*range)[0] &&
                    (*range)[0] <= (*range)[1] && (*range)[1] <= 1.0,
                "beta.per_job",
                "expects `low, high` with 0 <= low <= high <= 1");
    spec.per_job_beta = {(*range)[0], (*range)[1]};
  }
  pm::bind_config(codec, spec.pm);
  codec.non_default("instruments", spec.instruments, {});
  codec.non_default("retain_jobs", spec.retain_jobs, true);
  if (codec.reading()) {
    for (const std::string& name : spec.instruments) {
      sim::InstrumentRegistry::global().require(name);
    }
    // Legacy key: every run streams, but saved specs may still carry it.
    bool legacy_stream = false;
    codec.field("stream", legacy_stream);
  }
  codec.non_default("sample.cap", spec.sample.cap, std::uint64_t{0});
  using Mode = util::SamplePlan::Mode;
  if (codec.reading() || spec.sample.mode != Mode::kDecimate) {
    codec.choice("sample.mode", spec.sample.mode,
                 {{"decimate", Mode::kDecimate},
                  {"reservoir", Mode::kReservoir}});
  }
  codec.non_default("sample.seed", spec.sample.seed, std::uint64_t{0});
  if (codec.reading()) codec.reject_unread();  // a whole spec: no stray keys.
}

RunSpec RunSpec::parse(const util::Config& config) {
  return util::read_config<RunSpec>(config);
}

util::Config RunSpec::to_config() const { return util::write_config(*this); }

const std::string& RunSpec::key() const {
  const util::ScopedLock lock(key_cache.mutex);
  if (key_cache.value.empty()) key_cache.value = to_config().to_string();
  return key_cache.value;
}

std::string RunSpec::label() const {
  std::ostringstream os;
  os << wl::source_label(workload) << " x" << size_scale << ' '
     << core::policy_label(policy);
  if (pm.enabled()) os << " PM:" << pm::pm_label(pm);
  return os.str();
}

namespace {

// The platform models are heap-allocated and co-owned by every instrument
// handed back on the result: EnergyProbe and UtilizationTrace hold
// references into them (the models own their GearSet by value), so they
// must live as long as the last instrument, not just one run's frame.
struct Platform {
  power::PowerModel power;
  power::BetaTimeModel time;
  Platform(power::PowerModel p, power::BetaTimeModel t)
      : power(std::move(p)), time(std::move(t)) {}
};

/// Applies the spec's per-job transforms while the trace streams past:
/// clamps sizes for a shrunken machine and draws per-job betas, consuming
/// the rng sequentially in stream order.
class ShapedStream final : public wl::JobStream {
 public:
  ShapedStream(wl::JobStream& inner, std::int32_t clamp_size,
               std::optional<std::pair<double, double>> beta_range,
               std::uint64_t beta_seed)
      : inner_(&inner),
        clamp_(clamp_size),
        beta_(beta_range),
        rng_(beta_seed) {}

  std::optional<wl::Job> next() override {
    std::optional<wl::Job> job = inner_->next();
    if (!job.has_value()) return job;
    if (clamp_ > 0) job->size = std::min(job->size, clamp_);
    if (beta_) job->beta = rng_.uniform(beta_->first, beta_->second);
    return job;
  }
  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::int32_t cpus() const override { return inner_->cpus(); }
  [[nodiscard]] std::int64_t size_hint() const override {
    return inner_->size_hint();
  }

 private:
  wl::JobStream* inner_;
  std::int32_t clamp_;  ///< 0 = no clamping (machine not shrunken).
  std::optional<std::pair<double, double>> beta_;
  util::Rng rng_;
};

/// The one execution path: shapes `source` for the spec's machine, builds
/// the platform, policy, power manager and instruments, and simulates.
RunResult run_source(wl::JobStream& source, const RunSpec& spec) {
  const auto scaled_cpus = static_cast<std::int32_t>(
      std::llround(static_cast<double>(source.cpus()) * spec.size_scale));
  BSLD_REQUIRE(scaled_cpus >= 1, "RunSpec: scaled machine has no CPUs");
  // Enlarged systems keep original job sizes (paper §1: "Since our jobs are
  // rigid we have used original job sizes"); shrunken ones must clamp.
  const std::int32_t clamp = scaled_cpus < source.cpus() ? scaled_cpus : 0;
  // Per-job sensitivities (future-work extension) are seeded from the
  // workload source so equal specs stay bit-identical.
  ShapedStream shaped(source, clamp, spec.per_job_beta,
                      wl::source_seed(spec.workload) ^ 0xbe7abe7aULL);

  const auto platform = std::make_shared<Platform>(
      power::PowerModel(spec.gears, spec.power),
      power::BetaTimeModel(spec.gears, spec.beta));
  const auto policy = core::PolicyRegistry::global().make(spec.policy);
  // nullptr when the spec says pm = none: the simulation takes the exact
  // pre-pm code paths, keeping the baseline bit-identical.
  std::unique_ptr<pm::PowerManager> manager;
  if (spec.pm.enabled()) {
    manager = pm::PowerManagerRegistry::global().make(spec.pm, platform->power);
  }
  sim::SimulationConfig config;
  config.cpus = scaled_cpus;
  config.retain_jobs = spec.retain_jobs;
  config.power_manager = manager.get();
  sim::Simulation simulation(shaped, *policy, platform->power, platform->time,
                             config);

  // Extra views of the run's event stream, by registry name, in spec order.
  const sim::InstrumentContext context{platform->power, platform->time,
                                       spec.sample};
  std::vector<std::shared_ptr<sim::Instrument>> instruments;
  instruments.reserve(spec.instruments.size());
  for (const std::string& name : spec.instruments) {
    auto built = sim::InstrumentRegistry::global().make(name, context);
    // The deleter captures `platform`, extending the models' lifetime to
    // the last surviving instrument.
    instruments.emplace_back(built.release(),
                             [platform](sim::Instrument* instrument) {
                               std::default_delete<sim::Instrument>()(
                                   instrument);
                             });
    simulation.add_observer(*instruments.back());
  }
  return RunResult{spec, simulation.run(), std::move(instruments)};
}

}  // namespace

RunResult run_one(const RunSpec& spec) {
  // Fail fast: don't open the workload for a spec the run would reject
  // anyway.
  BSLD_REQUIRE(spec.size_scale > 0.0, "run_one(): size_scale must be positive");
  const std::unique_ptr<wl::JobStream> source = wl::open_stream(spec.workload);
  return run_source(*source, spec);
}

RunResult run_workload(wl::Workload workload, const RunSpec& spec) {
  BSLD_REQUIRE(spec.size_scale > 0.0,
               "run_workload(): size_scale must be positive");
  wl::sort_by_submit(workload);
  wl::VectorJobStream source(std::move(workload));
  return run_source(source, spec);
}

RunResult::RunResult(RunSpec spec_in, sim::SimulationResult sim_in,
                     std::vector<std::shared_ptr<sim::Instrument>>
                         instruments_in)
    : spec(std::move(spec_in)), instruments(std::move(instruments_in)) {
  set_sim(std::move(sim_in));
}

const sim::SimulationResult& RunResult::sim() const {
  static const sim::SimulationResult kEmpty{};
  return sim_ ? *sim_ : kEmpty;
}

void RunResult::set_sim(sim::SimulationResult value) {
  sim_ = std::make_shared<const sim::SimulationResult>(std::move(value));
}

const sim::Instrument* RunResult::instrument(std::string_view name) const {
  for (const auto& instrument : instruments) {
    if (instrument && instrument->name() == name) return instrument.get();
  }
  return nullptr;
}

NormalizedEnergy normalized_energy(const sim::SimulationResult& run,
                                   const sim::SimulationResult& baseline) {
  BSLD_REQUIRE(baseline.energy.computational_joules > 0.0 &&
                   baseline.energy.total_joules > 0.0,
               "normalized_energy(): degenerate baseline");
  return NormalizedEnergy{
      run.energy.computational_joules / baseline.energy.computational_joules,
      run.energy.total_joules / baseline.energy.total_joules};
}

}  // namespace bsld::report
