#include "trace.hpp"

#include <fstream>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/policy_registry.hpp"
#include "pm/registry.hpp"
#include "sim/instrument_registry.hpp"
#include "sim/instruments.hpp"

namespace perfbench::trace {

namespace {

namespace core = bsld::core;
namespace pm = bsld::pm;
namespace sim = bsld::sim;
namespace wl = bsld::wl;

constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);
/// Span records kept per thread; totals stay exact beyond it.
constexpr std::size_t kRecordCap = 1 << 16;
constexpr const char* kPrefix = "traced-";

struct Record {
  Kind kind;
  std::uint32_t thread;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t id;
  std::int64_t parent;  ///< -1 for a root span.
};

struct Frame {
  Kind kind;
  std::int64_t start_ns;
  std::int64_t child_ns;
  std::int64_t id;
};

struct ThreadState {
  std::uint32_t index = 0;
  std::int64_t next_id = 0;
  std::vector<Frame> stack;
  std::array<Totals, kKinds> totals{};
  Counters counters;
  std::vector<Record> records;
};

const Clock::time_point g_epoch = Clock::now();
std::mutex g_threads_mutex;
/// Owned here, not by the threads: a sweep worker's totals outlive it.
std::vector<std::unique_ptr<ThreadState>> g_threads;

std::int64_t ns_since_epoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

ThreadState& local() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    const std::lock_guard<std::mutex> lock(g_threads_mutex);
    g_threads.push_back(std::make_unique<ThreadState>());
    state = g_threads.back().get();
    state->index = static_cast<std::uint32_t>(g_threads.size() - 1);
    state->records.reserve(1024);
  }
  return *state;
}

void open_frame(ThreadState& state, Kind kind, std::int64_t start_ns) {
  const std::int64_t id =
      (static_cast<std::int64_t>(state.index) << 40) | state.next_id++;
  state.stack.push_back(Frame{kind, start_ns, 0, id});
}

void close_frame(ThreadState& state, std::int64_t end_ns) {
  const Frame frame = state.stack.back();
  state.stack.pop_back();
  const std::int64_t duration = end_ns - frame.start_ns;
  Totals& totals = state.totals[static_cast<std::size_t>(frame.kind)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  std::int64_t parent = -1;
  if (!state.stack.empty()) {
    state.stack.back().child_ns += duration;
    parent = state.stack.back().id;
  }
  if (state.records.size() < kRecordCap) {
    state.records.push_back(Record{frame.kind, state.index, frame.start_ns,
                                   end_ns, frame.id, parent});
  }
}

std::string strip(const std::string& name) {
  return name.rfind(kPrefix, 0) == 0 ? name.substr(std::string(kPrefix).size())
                                     : name;
}

/// Forwards everything; times start_job as a child of the policy span.
class TracedContext final : public core::SchedulerContext {
 public:
  core::SchedulerContext* inner = nullptr;

  [[nodiscard]] bsld::Time now() const override { return inner->now(); }
  [[nodiscard]] const bsld::cluster::Machine& machine() const override {
    return inner->machine();
  }
  [[nodiscard]] const wl::Job& job(bsld::JobId id) const override {
    return inner->job(id);
  }
  [[nodiscard]] const bsld::power::BetaTimeModel& time_model()
      const override {
    return inner->time_model();
  }
  void start_job(bsld::JobId id, const std::vector<bsld::CpuId>& cpus,
                 bsld::GearIndex gear) override {
    const Span span(Kind::kStartJob);
    inner->start_job(id, cpus, gear);
  }
  [[nodiscard]] std::vector<bsld::JobId> running_jobs() const override {
    return inner->running_jobs();
  }
  [[nodiscard]] bsld::GearIndex running_gear(bsld::JobId id) const override {
    return inner->running_gear(id);
  }
  void boost_job(bsld::JobId id, bsld::GearIndex gear) override {
    inner->boost_job(id, gear);
  }
};

class TracedPolicy final : public core::SchedulingPolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<core::SchedulingPolicy> inner)
      : inner_(std::move(inner)) {}

  void on_submit(core::SchedulerContext& ctx, bsld::JobId id) override {
    context_.inner = &ctx;
    const Span span(Kind::kPolicy);
    inner_->on_submit(context_, id);
  }
  void on_job_end(core::SchedulerContext& ctx, bsld::JobId id) override {
    context_.inner = &ctx;
    const Span span(Kind::kPolicy);
    inner_->on_job_end(context_, id);
  }
  [[nodiscard]] std::size_t queue_size() const override {
    return inner_->queue_size();
  }
  [[nodiscard]] const bsld::cluster::Reservation* reservation()
      const override {
    return inner_->reservation();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::SchedulingPolicy> inner_;
  /// A member, not a per-call temporary: a policy may keep its context.
  TracedContext context_;
};

class TracedAssigner final : public core::FrequencyAssigner {
 public:
  explicit TracedAssigner(std::unique_ptr<core::FrequencyAssigner> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] bsld::GearIndex reservation_gear(
      const core::SchedulerContext& ctx, const wl::Job& job, bsld::Time start,
      std::size_t wq_size) const override {
    const Span span(Kind::kAssign);
    return inner_->reservation_gear(ctx, job, start, wq_size);
  }
  [[nodiscard]] std::optional<bsld::GearIndex> backfill_gear(
      const core::SchedulerContext& ctx, const wl::Job& job,
      bsld::util::FunctionRef<bool(bsld::GearIndex)> feasible,
      std::size_t wq_size) const override {
    const Span span(Kind::kAssign);
    return inner_->backfill_gear(ctx, job, feasible, wq_size);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::FrequencyAssigner> inner_;
};

class TracedManager final : public pm::PowerManager {
 public:
  explicit TracedManager(std::unique_ptr<pm::PowerManager> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void on_run_begin(pm::PmContext& context) override {
    const Span span(Kind::kPmHook);
    inner_->on_run_begin(context);
  }
  void on_job_submit(pm::PmContext& context, bsld::JobId id) override {
    const Span span(Kind::kPmHook);
    inner_->on_job_submit(context, id);
  }
  [[nodiscard]] pm::StartDecision on_job_start(
      pm::PmContext& context, bsld::JobId id,
      const std::vector<bsld::CpuId>& cpus, bsld::GearIndex gear) override {
    const Span span(Kind::kPmHook);
    return inner_->on_job_start(context, id, cpus, gear);
  }
  void on_job_finish(pm::PmContext& context, bsld::JobId id,
                     const std::vector<bsld::CpuId>& cpus) override {
    const Span span(Kind::kPmHook);
    inner_->on_job_finish(context, id, cpus);
  }
  void on_job_raised(pm::PmContext& context, bsld::JobId id,
                     bsld::GearIndex gear) override {
    const Span span(Kind::kPmHook);
    inner_->on_job_raised(context, id, gear);
  }
  void on_timer(pm::PmContext& context) override {
    const Span span(Kind::kPmHook);
    inner_->on_timer(context);
  }
  void on_run_end(pm::PmContext& context) override {
    const Span span(Kind::kPmHook);
    inner_->on_run_end(context);
  }

 private:
  std::unique_ptr<pm::PowerManager> inner_;
};

/// Brackets Simulation::run as the kSimRun span and counts observer
/// deliveries. Overrides on_events so the per-event replay never runs.
class Probe final : public sim::Instrument {
 public:
  [[nodiscard]] std::string name() const override { return "trace-probe"; }
  void write_csv(std::ostream& out) const override { out << "probe\n"; }
  void on_run_begin(const sim::RunBeginEvent&) override {
    begin(Kind::kSimRun);
  }
  void on_run_end(const sim::RunEndEvent&) override { end(Kind::kSimRun); }
  void on_events(const sim::JobResolver&, const sim::BatchedEvent*,
                 std::size_t count) override {
    Counters& counters = local().counters;
    counters.events += count;
    ++counters.batches;
  }
};

class TimedStream final : public wl::JobStream {
 public:
  explicit TimedStream(std::unique_ptr<wl::JobStream> inner)
      : inner_(std::move(inner)) {}

  std::optional<wl::Job> next() override {
    const Span span(Kind::kPull);
    std::optional<wl::Job> job = inner_->next();
    if (job.has_value()) ++local().counters.jobs_pulled;
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
  std::unique_ptr<wl::JobStream> inner_;
};

}  // namespace

const char* kind_name(Kind kind) {
  static constexpr std::array<const char*, kKinds> kNames = {
      "sim.run",      "workload.pull", "core.policy",  "core.assign",
      "sim.start_job", "pm.hook",      "report.spec",  "report.cache_lookup",
      "report.cache_store", "report.expand", "report.render",
      "server.service", "server.request"};
  return kNames[static_cast<std::size_t>(kind)];
}

Span::Span(Kind kind) { begin(kind); }

Span::~Span() { close_frame(local(), ns_since_epoch(Clock::now())); }

void begin(Kind kind) {
  open_frame(local(), kind, ns_since_epoch(Clock::now()));
}

void end(Kind kind) {
  ThreadState& state = local();
  if (state.stack.empty() || state.stack.back().kind != kind) return;
  close_frame(state, ns_since_epoch(Clock::now()));
}

void record(Kind kind, Clock::time_point start, Clock::time_point end) {
  ThreadState& state = local();
  open_frame(state, kind, ns_since_epoch(start));
  close_frame(state, ns_since_epoch(end));
}

std::array<Totals, kKinds> totals() {
  std::array<Totals, kKinds> sum{};
  const std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& state : g_threads) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      sum[k].count += state->totals[k].count;
      sum[k].total_ns += state->totals[k].total_ns;
      sum[k].self_ns += state->totals[k].self_ns;
    }
  }
  return sum;
}

Counters counters() {
  Counters sum;
  const std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& state : g_threads) {
    sum.jobs_pulled += state->counters.jobs_pulled;
    sum.events += state->counters.events;
    sum.batches += state->counters.batches;
  }
  return sum;
}

void reset() {
  const std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& state : g_threads) {
    state->totals = {};
    state->counters = {};
    state->records.clear();
  }
}

std::size_t write_records(const std::string& path) {
  std::ofstream out(path);
  out << "name,thread,start_ns,end_ns,id,parent\n";
  std::size_t written = 0;
  const std::lock_guard<std::mutex> lock(g_threads_mutex);
  for (const auto& state : g_threads) {
    for (const Record& r : state->records) {
      out << kind_name(r.kind) << ',' << r.thread << ',' << r.start_ns << ','
          << r.end_ns << ',' << r.id << ',' << r.parent << '\n';
      ++written;
    }
  }
  return written;
}

void register_wrappers() {
  static std::once_flag once;
  std::call_once(once, [] {
    core::PolicyRegistry& policies = core::PolicyRegistry::global();
    for (const std::string& name : policies.policy_names()) {
      policies.add_policy(kPrefix + name, [&policies](
                                              const core::PolicySpec& spec) {
        core::PolicySpec inner = spec;
        inner.name = strip(spec.name);
        return std::make_unique<TracedPolicy>(policies.make(inner));
      });
    }
    for (const std::string& name : policies.assigner_names()) {
      policies.add_assigner(kPrefix + name, [&policies](
                                                const core::PolicySpec& spec) {
        core::PolicySpec inner = spec;
        inner.assigner = strip(spec.assigner);
        return std::make_unique<TracedAssigner>(policies.make_assigner(inner));
      });
    }
    pm::PowerManagerRegistry& managers = pm::PowerManagerRegistry::global();
    for (const std::string& name : managers.names()) {
      managers.add(kPrefix + name, "", [&managers](
                                           const pm::PmSpec& spec,
                                           const bsld::power::PowerModel&
                                               model) {
        pm::PmSpec inner = spec;
        inner.name = strip(spec.name);
        return std::make_unique<TracedManager>(managers.make(inner, model));
      });
    }
    sim::InstrumentRegistry::global().add(
        "trace-probe", [](const sim::InstrumentContext&) {
          return std::make_unique<Probe>();
        });
  });
}

bsld::report::RunSpec traced(const bsld::report::RunSpec& spec) {
  bsld::report::RunSpec out = spec;
  out.policy.assigner = kPrefix + spec.policy.resolved_assigner();
  out.policy.name = kPrefix + spec.policy.name;
  if (spec.pm.enabled()) out.pm.name = kPrefix + spec.pm.name;
  out.instruments.push_back("trace-probe");
  return out;
}

std::unique_ptr<wl::JobStream> timed(std::unique_ptr<wl::JobStream> inner) {
  return std::make_unique<TimedStream>(std::move(inner));
}

}  // namespace perfbench::trace
