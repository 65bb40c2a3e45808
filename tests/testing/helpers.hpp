/// \file helpers.hpp
/// \brief Shared fixtures for scheduler/simulation tests: compact job
/// construction, a one-call simulation runner, and a fake SchedulerContext
/// for unit-testing frequency assigners without a full simulation.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "cluster/gears.hpp"
#include "core/scheduler.hpp"
#include "power/power_model.hpp"
#include "power/time_model.hpp"
#include "sim/simulation.hpp"
#include "testing/policy_factory.hpp"
#include "util/error.hpp"
#include "workload/job.hpp"
#include "workload/stream.hpp"

namespace bsld::testing {

/// Compact job literal: {id, submit, runtime, requested, size}.
inline wl::Job job(JobId id, Time submit, Time run_time, Time requested,
                   std::int32_t size) {
  wl::Job out;
  out.id = id;
  out.submit = submit;
  out.run_time = run_time;
  out.requested_time = requested;
  out.size = size;
  out.user_id = 0;
  return out;
}

inline wl::Workload workload(std::int32_t cpus, std::vector<wl::Job> jobs) {
  wl::Workload out;
  out.name = "test";
  out.cpus = cpus;
  out.jobs = std::move(jobs);
  return out;
}

/// Simulation models bundled for one-line test setup.
struct Models {
  cluster::GearSet gears = cluster::paper_gear_set();
  power::PowerModel power{gears};
  power::BetaTimeModel time{gears, 0.5};
};

/// `load` stable-sorted by submit and replayed as a stream — how every
/// hand-built trace enters the simulation (report::run_workload does the
/// same).
inline wl::VectorJobStream stream_of(wl::Workload load) {
  wl::sort_by_submit(load);
  return wl::VectorJobStream(std::move(load));
}

/// Runs `workload` through a freshly-built policy and returns the result.
inline sim::SimulationResult run(
    const wl::Workload& load, const Models& models,
    core::BasePolicy base = core::BasePolicy::kEasy,
    std::optional<core::DvfsConfig> dvfs = std::nullopt,
    const std::string& selector = "FirstFit",
    sim::SimulationConfig config = {}) {
  const auto policy = core::make_policy(base, dvfs, selector);
  wl::VectorJobStream stream = stream_of(load);
  return sim::Simulation(stream, *policy, models.power, models.time, config)
      .run();
}

/// Minimal SchedulerContext: a machine snapshot, a job table, and a fixed
/// clock. start_job records the call instead of simulating.
class FakeContext final : public core::SchedulerContext {
 public:
  FakeContext(std::int32_t cpus, const power::BetaTimeModel& time_model)
      : machine_(cpus), time_model_(time_model) {}

  void add_job(const wl::Job& job) { jobs_[job.id] = job; }
  void set_now(Time now) { now_ = now; }
  cluster::Machine& mutable_machine() { return machine_; }

  [[nodiscard]] Time now() const override { return now_; }
  [[nodiscard]] const cluster::Machine& machine() const override {
    return machine_;
  }
  [[nodiscard]] const wl::Job& job(JobId id) const override {
    const auto it = jobs_.find(id);
    BSLD_REQUIRE(it != jobs_.end(), "FakeContext: unknown job");
    return it->second;
  }
  [[nodiscard]] const power::BetaTimeModel& time_model() const override {
    return time_model_;
  }
  void start_job(JobId id, const std::vector<CpuId>& cpus,
                 GearIndex gear) override {
    started.push_back({id, cpus, gear});
  }
  [[nodiscard]] std::vector<JobId> running_jobs() const override {
    return fake_running;
  }
  [[nodiscard]] GearIndex running_gear(JobId id) const override {
    const auto it = fake_gears.find(id);
    BSLD_REQUIRE(it != fake_gears.end(), "FakeContext: job not running");
    return it->second;
  }
  void boost_job(JobId id, GearIndex gear) override {
    boosts.push_back({id, gear});
    fake_gears[id] = gear;
  }

  struct StartCall {
    JobId id;
    std::vector<CpuId> cpus;
    GearIndex gear;
  };
  struct BoostCall {
    JobId id;
    GearIndex gear;
  };
  std::vector<StartCall> started;
  std::vector<BoostCall> boosts;
  std::vector<JobId> fake_running;
  std::map<JobId, GearIndex> fake_gears;

 private:
  cluster::Machine machine_;
  const power::BetaTimeModel& time_model_;
  std::map<JobId, wl::Job> jobs_;
  Time now_ = 0;
};

}  // namespace bsld::testing
