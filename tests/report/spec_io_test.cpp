/// \file spec_io_test.cpp
/// \brief RunSpec serialization: parse/format round-trips must be
/// byte-identical, parsed specs must equal their source specs, and a spec
/// replayed from its serialized form must reproduce the original results
/// bit-for-bit — the property that makes run configs savable, diffable and
/// replayable.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>

#include "report/experiment.hpp"
#include "util/error.hpp"

namespace bsld::report {
namespace {

std::vector<RunSpec> representative_specs() {
  std::vector<RunSpec> specs;

  specs.emplace_back();  // all defaults

  {
    RunSpec spec;
    spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 300, 9);
    spec.size_scale = 1.5;
    core::DvfsConfig dvfs;
    dvfs.bsld_threshold = 1.5;
    dvfs.wq_threshold = 16;
    spec.policy.dvfs = dvfs;
    specs.push_back(spec);
  }
  {
    RunSpec spec;
    spec.policy.name = "conservative";
    spec.policy.selector = "LastFit";
    core::DvfsConfig dvfs;
    dvfs.wq_threshold = std::nullopt;
    dvfs.backfill_requires_bsld_at_top = false;
    spec.policy.dvfs = dvfs;
    spec.beta = 0.3;
    spec.power.top_active_power_watts = 120.0;
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // dynamic raise + per-job beta + custom gears
    core::DvfsConfig dvfs;
    spec.policy.dvfs = dvfs;
    core::DynamicRaiseConfig raise;
    raise.queue_limit = 8;
    spec.policy.raise = raise;
    spec.per_job_beta = {{0.25, 0.75}};
    spec.gears = cluster::GearSet({{1.0, 1.0}, {2.0, 1.25}, {3.0, 1.5}});
    specs.push_back(spec);
  }
  {
    RunSpec spec;
    spec.workload = wl::WorkloadSource::from_swf("traces/real.swf", 2000, 512);
    spec.policy.name = "fcfs";
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // instrumented streaming run
    spec.instruments = {"wait-trace", "utilization", "energy"};
    spec.retain_jobs = false;
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // power-capped run
    spec.pm.name = "cap-proportional";
    spec.pm.cap_watts = 4000.0;
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // closed-loop power control, every tunable set
    spec.pm.name = "setpoint";
    spec.pm.setpoint_watts = 350000.0;
    spec.pm.cap_watts = 400000.0;
    spec.pm.interval_s = 120;
    spec.pm.gain = 0.25;
    specs.push_back(spec);
  }
  {
    wl::WorkloadSpec workload;
    workload.name = "inline";
    workload.cpus = 48;
    workload.num_jobs = 200;
    workload.runtime.classes = {{0.5, 4.0, 0.5}, {0.5, 7.5, 1.5}};
    RunSpec spec;
    spec.workload = wl::WorkloadSource::from_spec(workload, 3);
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // aggregate-only run with sampled traces
    spec.retain_jobs = false;
    spec.instruments = {"wait-trace", "utilization"};
    spec.sample.cap = 4096;
    spec.sample.mode = util::SamplePlan::Mode::kReservoir;
    spec.sample.seed = 12345;
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // sleep manager with its own C-state ladder
    spec.pm.name = "sleep";
    spec.power.sleep_states = {{10.0, 60, 1}, {2.0, 600, 30}};
    specs.push_back(spec);
  }
  {
    RunSpec spec;  // trace length beyond the int32 boundary
    spec.workload =
        wl::WorkloadSource::from_archive(wl::Archive::kCTC,
                                         std::int64_t{3'000'000'000});
    specs.push_back(spec);
  }
  return specs;
}

TEST(SpecIoTest, JobCountSurvivesTheInt32Boundary) {
  // WorkloadSource::jobs is int64 end to end: a trace length one past
  // INT32_MAX must round-trip through the config text unclamped.
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(
      wl::Archive::kSDSC, std::int64_t{2147483648});  // 2^31
  const RunSpec parsed =
      RunSpec::parse(util::Config::parse(spec.to_config().to_string()));
  EXPECT_EQ(parsed.workload.jobs, std::int64_t{2147483648});
  EXPECT_EQ(parsed, spec);
}

TEST(SpecIoTest, ParseFormatRoundTripIsByteIdentical) {
  for (const RunSpec& spec : representative_specs()) {
    const std::string text = spec.to_config().to_string();
    const RunSpec parsed = RunSpec::parse(util::Config::parse(text));
    EXPECT_EQ(parsed, spec) << text;
    EXPECT_EQ(parsed.to_config().to_string(), text);
    EXPECT_EQ(parsed.key(), spec.key());
    EXPECT_EQ(parsed.label(), spec.label());
  }
}

/// One spec with every serialized group populated: an inline workload,
/// DVFS with a WQ limit, dynamic raise, custom gears, a sleep ladder,
/// per-job beta, the setpoint manager with every tunable, instruments, a
/// sampled plan and aggregate-only retention.
RunSpec full_spec() {
  wl::WorkloadSpec workload;
  workload.name = "full";
  workload.cpus = 64;
  workload.num_jobs = 300;
  workload.runtime.classes = {{0.6, 4.0, 0.5}, {0.4, 7.5, 1.5}};
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_spec(workload, 17);
  spec.workload.jobs = 250;
  spec.size_scale = 1.2;
  spec.policy.selector = "LastFit";
  spec.policy.assigner = "bsld";
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 1.5;
  dvfs.wq_threshold = 16;
  spec.policy.dvfs = dvfs;
  spec.policy.raise = core::DynamicRaiseConfig{};
  spec.gears = cluster::GearSet({{1.0, 1.0}, {2.0, 1.25}, {3.0, 1.5}});
  spec.beta = 0.4;
  spec.power.sleep_states = {{10.0, 60, 1}, {2.0, 600, 30}};
  spec.per_job_beta = {{0.25, 0.75}};
  spec.pm.name = "setpoint";
  spec.pm.setpoint_watts = 350000.0;
  spec.pm.cap_watts = 400000.0;
  spec.pm.interval_s = 120;
  spec.pm.gain = 0.25;
  spec.instruments = {"wait-trace", "energy"};
  spec.retain_jobs = false;
  spec.sample.cap = 4096;
  spec.sample.mode = util::SamplePlan::Mode::kReservoir;
  spec.sample.seed = 12345;
  return spec;
}

TEST(SpecIoTest, EveryFieldIsPartOfTheKey) {
  // Each edit changes one field (or switches one alternative) of
  // full_spec(). Every variant must round-trip byte-identically, and no
  // two variants may share a key: a field the writer forgets would let
  // two different runs alias one cache entry.
  using Edit = std::pair<const char*, std::function<void(RunSpec&)>>;
  const auto clear_pm = [](RunSpec& s, const char* name) {
    s.pm = pm::PmSpec{};
    s.pm.name = name;
  };
  const std::vector<Edit> edits = {
      {"none", [](RunSpec&) {}},
      {"jobs", [](RunSpec& s) { s.workload.jobs += 1; }},
      {"seed", [](RunSpec& s) { s.workload.seed += 1; }},
      {"spec.name", [](RunSpec& s) { s.workload.spec.name += "x"; }},
      {"spec.cpus", [](RunSpec& s) { s.workload.spec.cpus += 1; }},
      {"spec.num_jobs", [](RunSpec& s) { s.workload.spec.num_jobs += 1; }},
      {"load_target",
       [](RunSpec& s) { s.workload.spec.arrival.load_target += 0.1; }},
      {"burst_probability",
       [](RunSpec& s) { s.workload.spec.arrival.burst_probability += 0.1; }},
      {"burst_gap_mean",
       [](RunSpec& s) { s.workload.spec.arrival.burst_gap_mean += 1.0; }},
      {"daily_amplitude",
       [](RunSpec& s) { s.workload.spec.arrival.daily_amplitude += 0.1; }},
      {"peak_hour", [](RunSpec& s) { s.workload.spec.arrival.peak_hour += 1; }},
      {"p_sequential",
       [](RunSpec& s) { s.workload.spec.size.p_sequential += 0.1; }},
      {"min_size", [](RunSpec& s) { s.workload.spec.size.min_size += 1; }},
      {"max_size", [](RunSpec& s) { s.workload.spec.size.max_size += 1; }},
      {"log2_mean", [](RunSpec& s) { s.workload.spec.size.log2_mean += 0.5; }},
      {"log2_sigma",
       [](RunSpec& s) { s.workload.spec.size.log2_sigma += 0.5; }},
      {"p_power_of_two",
       [](RunSpec& s) { s.workload.spec.size.p_power_of_two += 0.1; }},
      {"runtime.weight",
       [](RunSpec& s) { s.workload.spec.runtime.classes[1].weight += 0.1; }},
      {"runtime.mu",
       [](RunSpec& s) { s.workload.spec.runtime.classes[1].mu += 0.1; }},
      {"runtime.sigma",
       [](RunSpec& s) { s.workload.spec.runtime.classes[1].sigma += 0.1; }},
      {"runtime.classes",
       [](RunSpec& s) { s.workload.spec.runtime.classes.pop_back(); }},
      {"min_runtime",
       [](RunSpec& s) { s.workload.spec.runtime.min_runtime += 1; }},
      {"max_runtime",
       [](RunSpec& s) { s.workload.spec.runtime.max_runtime += 1; }},
      {"p_exact", [](RunSpec& s) { s.workload.spec.estimate.p_exact += 0.1; }},
      {"factor_mu",
       [](RunSpec& s) { s.workload.spec.estimate.factor_mu += 0.1; }},
      {"factor_sigma",
       [](RunSpec& s) { s.workload.spec.estimate.factor_sigma += 0.1; }},
      {"round_to_nice",
       [](RunSpec& s) {
         s.workload.spec.estimate.round_to_nice =
             !s.workload.spec.estimate.round_to_nice;
       }},
      {"max_requested",
       [](RunSpec& s) { s.workload.spec.estimate.max_requested += 1; }},
      {"archive",
       [](RunSpec& s) {
         s.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 250);
       }},
      {"archive.name",
       [](RunSpec& s) {
         s.workload = wl::WorkloadSource::from_archive(wl::Archive::kCTC, 250);
       }},
      {"swf",
       [](RunSpec& s) {
         s.workload = wl::WorkloadSource::from_swf("a.swf", 250, 128);
       }},
      {"swf.path",
       [](RunSpec& s) {
         s.workload = wl::WorkloadSource::from_swf("b.swf", 250, 128);
       }},
      {"swf.cpus",
       [](RunSpec& s) {
         s.workload = wl::WorkloadSource::from_swf("a.swf", 250, 256);
       }},
      {"scale", [](RunSpec& s) { s.size_scale = 1.5; }},
      {"policy.name", [](RunSpec& s) { s.policy.name = "conservative"; }},
      {"selector", [](RunSpec& s) { s.policy.selector = "FirstFit"; }},
      {"assigner", [](RunSpec& s) { s.policy.assigner.clear(); }},
      {"dvfs", [](RunSpec& s) { s.policy.dvfs.reset(); }},
      {"bsld_threshold", [](RunSpec& s) { s.policy.dvfs->bsld_threshold = 2; }},
      {"wq NO", [](RunSpec& s) { s.policy.dvfs->wq_threshold.reset(); }},
      {"wq", [](RunSpec& s) { s.policy.dvfs->wq_threshold = 17; }},
      {"bsld_floor", [](RunSpec& s) { s.policy.dvfs->bsld_floor += 1; }},
      {"wq_counts_self",
       [](RunSpec& s) { s.policy.dvfs->wq_counts_self = true; }},
      {"backfill_requires_bsld_at_top",
       [](RunSpec& s) {
         s.policy.dvfs->backfill_requires_bsld_at_top = false;
       }},
      {"raise", [](RunSpec& s) { s.policy.raise.reset(); }},
      {"raise.queue_limit",
       [](RunSpec& s) { s.policy.raise->queue_limit += 1; }},
      {"raise.one_step", [](RunSpec& s) { s.policy.raise->one_step = true; }},
      {"gears.frequency",
       [](RunSpec& s) {
         s.gears = cluster::GearSet({{1.0, 1.0}, {2.5, 1.25}, {3.0, 1.5}});
       }},
      {"gears.voltage",
       [](RunSpec& s) {
         s.gears = cluster::GearSet({{1.0, 1.0}, {2.0, 1.3}, {3.0, 1.5}});
       }},
      {"gears.count",
       [](RunSpec& s) {
         s.gears = cluster::GearSet({{1.0, 1.0}, {3.0, 1.5}});
       }},
      {"beta", [](RunSpec& s) { s.beta = 0.5; }},
      {"activity_ratio", [](RunSpec& s) { s.power.activity_ratio += 0.5; }},
      {"static_fraction_at_top",
       [](RunSpec& s) { s.power.static_fraction_at_top += 0.05; }},
      {"top_active_power_watts",
       [](RunSpec& s) { s.power.top_active_power_watts += 5; }},
      {"sleep.power_watts",
       [](RunSpec& s) { s.power.sleep_states[1].power_watts = 1.0; }},
      {"sleep.enter_after_s",
       [](RunSpec& s) { s.power.sleep_states[1].enter_after_s += 1; }},
      {"sleep.wake_latency_s",
       [](RunSpec& s) { s.power.sleep_states[1].wake_latency_s += 1; }},
      {"sleep.states", [](RunSpec& s) { s.power.sleep_states.pop_back(); }},
      {"sleep ladder", [](RunSpec& s) { s.power.sleep_states.clear(); }},
      {"per_job_beta.low", [](RunSpec& s) { s.per_job_beta->first = 0.3; }},
      {"per_job_beta.high", [](RunSpec& s) { s.per_job_beta->second = 0.7; }},
      {"per_job_beta", [](RunSpec& s) { s.per_job_beta.reset(); }},
      {"pm.setpoint_watts", [](RunSpec& s) { s.pm.setpoint_watts = 1e5; }},
      {"pm.cap_watts", [](RunSpec& s) { s.pm.cap_watts = 5e5; }},
      {"pm.interval_s", [](RunSpec& s) { s.pm.interval_s = 60; }},
      {"pm.gain", [](RunSpec& s) { s.pm.gain = 0.5; }},
      {"pm cap-uniform",
       [&](RunSpec& s) {
         clear_pm(s, "cap-uniform");
         s.pm.cap_watts = 4000.0;
       }},
      {"pm cap-proportional",
       [&](RunSpec& s) {
         clear_pm(s, "cap-proportional");
         s.pm.cap_watts = 4000.0;
       }},
      {"pm sleep", [&](RunSpec& s) { clear_pm(s, "sleep"); }},
      {"pm none", [&](RunSpec& s) { clear_pm(s, "none"); }},
      {"instruments", [](RunSpec& s) { s.instruments.pop_back(); }},
      {"instruments order",
       [](RunSpec& s) { s.instruments = {"energy", "wait-trace"}; }},
      {"retain_jobs", [](RunSpec& s) { s.retain_jobs = true; }},
      {"sample.cap", [](RunSpec& s) { s.sample.cap += 1; }},
      {"sample.mode",
       [](RunSpec& s) { s.sample.mode = util::SamplePlan::Mode::kDecimate; }},
      {"sample.seed", [](RunSpec& s) { s.sample.seed += 1; }},
  };
  std::map<std::string, std::string> owner;  // key -> edit that made it
  for (const auto& [name, edit] : edits) {
    SCOPED_TRACE(name);
    RunSpec spec = full_spec();
    edit(spec);
    const std::string text = spec.to_config().to_string();
    const RunSpec parsed = RunSpec::parse(util::Config::parse(text));
    EXPECT_EQ(parsed, spec) << text;
    EXPECT_EQ(parsed.to_config().to_string(), text);
    const auto [at, fresh] = owner.emplace(spec.key(), name);
    EXPECT_TRUE(fresh) << "shares its key with `" << at->second << "`";
  }
}

TEST(SpecIoTest, PartialConfigKeepsDefaults) {
  const RunSpec parsed = RunSpec::parse(util::Config::parse(
      "workload.archive = SDSCBlue\npolicy.name = fcfs\n"));
  RunSpec expected;
  expected.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSCBlue);
  expected.policy.name = "fcfs";
  EXPECT_EQ(parsed, expected);
}

TEST(SpecIoTest, ReplayedSpecReproducesResults) {
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSC, 250);
  core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 4;
  spec.policy.dvfs = dvfs;

  const RunSpec replayed =
      RunSpec::parse(util::Config::parse(spec.to_config().to_string()));
  const RunResult original = run_one(spec);
  const RunResult replay = run_one(replayed);
  EXPECT_DOUBLE_EQ(original.sim().avg_bsld, replay.sim().avg_bsld);
  EXPECT_DOUBLE_EQ(original.sim().energy.total_joules,
                   replay.sim().energy.total_joules);
  EXPECT_EQ(original.sim().makespan, replay.sim().makespan);
  EXPECT_EQ(original.sim().reduced_jobs, replay.sim().reduced_jobs);
}

TEST(SpecIoTest, PmKeysParseAndLabelTheRun) {
  const RunSpec parsed = RunSpec::parse(util::Config::parse(
      "pm = cap-uniform\npm.cap_watts = 4000\n"));
  ASSERT_TRUE(parsed.pm.enabled());
  EXPECT_EQ(parsed.pm.name, "cap-uniform");
  EXPECT_EQ(parsed.pm.cap_watts, 4000.0);
  EXPECT_NE(parsed.label().find("PM:cap-uniform@4000W"), std::string::npos)
      << parsed.label();
  // The default spec's label carries no PM segment.
  EXPECT_EQ(RunSpec{}.label().find("PM:"), std::string::npos);
}

TEST(SpecIoTest, UnknownPmManagerRejected) {
  EXPECT_THROW(RunSpec::parse(util::Config::parse("pm = warp-drive\n")),
               Error);
}

TEST(SpecIoTest, PmFamilyRulesEnforcedAtParseTime) {
  // A capping manager without its cap fails when the spec is read, not
  // mid-sweep when the manager is built.
  EXPECT_THROW(RunSpec::parse(util::Config::parse("pm = cap-uniform\n")),
               Error);
  EXPECT_THROW(
      RunSpec::parse(util::Config::parse("pm = sleep\npm.gain = 0.5\n")),
      Error);
}

TEST(SpecIoTest, EqualSpecsShareTheKey) {
  RunSpec a;
  RunSpec b;
  EXPECT_EQ(a.key(), b.key());
  // key() is memoized, so a spec is frozen once keyed; tweak a copy
  // instead (copy construction/assignment resets the copy's cache).
  RunSpec c = a;
  c.size_scale = 1.2;
  EXPECT_NE(a.key(), c.key());
  RunSpec d;
  d = c;
  d.size_scale = 1.4;
  EXPECT_NE(c.key(), d.key());
}

TEST(SpecIoTest, LegacyStreamKeyIsAcceptedAndIgnored) {
  // Every run streams, so `stream` no longer selects anything: saved specs
  // carrying it still parse, and it never splits the key (dedup and the
  // result cache) or reappears in a serialized spec.
  const std::string text = RunSpec{}.to_config().to_string();
  const RunSpec legacy =
      RunSpec::parse(util::Config::parse(text + "stream = true\n"));
  EXPECT_EQ(legacy.key(), RunSpec{}.key());
  EXPECT_EQ(legacy, RunSpec{});

  RunSpec assigned;
  assigned.stream = true;
  EXPECT_EQ(assigned.key(), RunSpec{}.key());
  EXPECT_EQ(assigned.to_config().to_string().find("stream"),
            std::string::npos);
}

TEST(SpecIoTest, MalformedPerJobBetaRejected) {
  EXPECT_THROW((void)RunSpec::parse(
                   util::Config::parse("beta.per_job = 0.5\n")),
               Error);
}

TEST(SpecIoTest, UnknownPolicyRejected) {
  EXPECT_THROW((void)RunSpec::parse(
                   util::Config::parse("policy.name = round-robin\n")),
               Error);
}

TEST(SpecIoTest, UnknownWorkloadKindRejected) {
  EXPECT_THROW((void)RunSpec::parse(
                   util::Config::parse("workload.source = database\n")),
               Error);
}

TEST(SpecIoTest, UnknownInstrumentRejectedListingRegistry) {
  try {
    (void)RunSpec::parse(util::Config::parse("instruments = wait-trase\n"));
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    // Typos fail discoverably: the message names the registered set.
    EXPECT_NE(std::string(error.what()).find("wait-trace"), std::string::npos)
        << error.what();
  }
}

/// The message of the bsld::Error `parse` throws on `text`, or "" when it
/// parses.
std::string parse_error(const std::string& text) {
  try {
    (void)RunSpec::parse(util::Config::parse(text));
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

TEST(SpecIoTest, KeysTheSpecDoesNotReadAreErrorsNamingTheKey) {
  // Each of these once parsed and silently ran something else.
  EXPECT_NE(parse_error("policy.dvfs = true\npolicy.bsld_treshold = 3\n")
                .find("`policy.bsld_treshold`"),
            std::string::npos);
  EXPECT_NE(parse_error("workload.source = archive\nworkload.cpus = 64\n")
                .find("`workload.cpus`"),
            std::string::npos);
  EXPECT_NE(parse_error("policy.dvfs = false\npolicy.bsld_threshold = 3\n")
                .find("`policy.bsld_threshold`"),
            std::string::npos);
  EXPECT_NE(parse_error("policy.raise.one_step = true\n")
                .find("`policy.raise.one_step`"),
            std::string::npos);
  EXPECT_NE(parse_error("pm = none\npm.cap_watts = 4000\n").find("pm.cap_watts"),
            std::string::npos);
  // The same keys where the spec does read them.
  EXPECT_EQ(parse_error("policy.dvfs = true\npolicy.bsld_threshold = 3\n"), "");
  EXPECT_EQ(parse_error("workload.source = swf\nworkload.path = t.swf\n"
                        "workload.cpus = 64\n"),
            "");
}

TEST(SpecIoTest, NegativeQueueLimitsAreRejectedAtParse) {
  EXPECT_NE(parse_error("policy.dvfs = true\npolicy.wq_threshold = -1\n")
                .find("`policy.wq_threshold`"),
            std::string::npos);
  EXPECT_NE(parse_error("policy.raise.queue_limit = -1\n")
                .find("`policy.raise.queue_limit`"),
            std::string::npos);
  EXPECT_EQ(parse_error("policy.dvfs = true\npolicy.wq_threshold = 0\n"
                        "policy.raise.queue_limit = 0\n"),
            "");
}

TEST(SpecIoTest, OutOfRangeValuesAreRejectedAtParseNamingTheKey) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"workload.jobs = -5\n", "workload.jobs"},
      {"workload.jobs = 0\n", "workload.jobs"},  // an archive source
      {"workload.source = swf\nworkload.path = t.swf\n"
       "workload.jobs = -1\n",
       "workload.jobs"},
      {"scale = -2\n", "scale"},
      {"scale = 0\n", "scale"},
      {"time.beta = -3\n", "time.beta"},
      {"time.beta = 1.5\n", "time.beta"},
      {"beta.per_job = -1, 3\n", "beta.per_job"},
      {"beta.per_job = 0.7, 0.3\n", "beta.per_job"},
      {"beta.per_job = 0.5\n", "beta.per_job"}};
  for (const auto& [text, key] : cases) {
    EXPECT_NE(parse_error(text).find("`" + key + "`"), std::string::npos)
        << text;
  }
  EXPECT_EQ(parse_error("workload.source = swf\nworkload.path = t.swf\n"
                        "workload.jobs = 0\nscale = 0.5\ntime.beta = 0\n"
                        "beta.per_job = 0, 1\n"),
            "");
}

TEST(SpecIoTest, HashInsideAPathRoundTrips) {
  RunSpec spec;
  spec.workload = wl::WorkloadSource::from_swf("tr#1.swf", 10);
  const std::string text = spec.to_config().to_string();
  EXPECT_NE(text.find("workload.path = tr#1.swf\n"), std::string::npos);
  const RunSpec parsed = RunSpec::parse(util::Config::parse(text));
  EXPECT_EQ(parsed.workload.path, "tr#1.swf");
  EXPECT_EQ(parsed, spec);
  EXPECT_EQ(parsed.key(), spec.key());
}

TEST(SpecIoTest, PathsThatWouldNotReadBackAreRefusedNamingTheKey) {
  for (const char* path : {"a #b.swf", " lead.swf", "trail.swf ", "#x.swf",
                           "two\nlines.swf"}) {
    RunSpec spec;
    spec.workload = wl::WorkloadSource::from_swf(path, 10);
    try {
      (void)spec.to_config();
      FAIL() << "wrote `" << path << "`";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("`workload.path`"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(SpecIoTest, DefaultInstrumentFieldsKeepLegacySerialization) {
  // Specs without instruments/retain_jobs must serialize exactly as before
  // the measurement fields existed — saved spec files stay byte-stable.
  const RunSpec spec;
  const std::string text = spec.to_config().to_string();
  EXPECT_EQ(text.find("instruments"), std::string::npos);
  EXPECT_EQ(text.find("retain_jobs"), std::string::npos);
}

}  // namespace
}  // namespace bsld::report
