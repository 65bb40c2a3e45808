#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "report/sinks.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace {

/// Every per-layer metric, in BENCHMARK.json order.
constexpr std::array<std::pair<const char*, const char*>, 34> kLayerMetrics{{
    {"workload.pull_s", "s"},
    {"workload.jobs_pulled", "count"},
    {"core.policy_self_s", "s"},
    {"core.policy_calls", "count"},
    {"core.assign_s", "s"},
    {"core.assign_calls", "count"},
    {"report.spec_ms.CTC", "ms"},
    {"report.spec_ms.SDSC", "ms"},
    {"report.spec_ms.SDSCBlue", "ms"},
    {"report.spec_ms.LLNLThunder", "ms"},
    {"report.spec_ms.LLNLAtlas", "ms"},
    {"sim.self_s", "s"},
    {"sim.start_job_s", "s"},
    {"sim.events", "count"},
    {"sim.peak_live_jobs", "count"},
    {"sim.observer_batches", "count"},
    {"sim.events_per_batch", "count"},
    {"pm.hook_s", "s"},
    {"pm.hook_calls", "count"},
    {"report.worker_busy_ratio", "ratio"},
    {"report.cache_store_ms", "ms"},
    {"report.cache_stores", "count"},
    {"report.cache_lookup_ms", "ms"},
    {"report.cache_hit_ratio", "ratio"},
    {"report.cache_lookups", "count"},
    {"report.expand_ms", "ms"},
    {"report.render_ms", "ms"},
    {"server.service_hit_ms", "ms"},
    {"server.rtt_overhead_ms", "ms"},
    {"server.requests", "count"},
    {"server.errors", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.untraced_s", "s"},
    {"trace.traced_s", "s"},
}};

std::string proc_path(pid_t pid, const char* leaf) {
  return (pid == 0 ? std::string("/proc/self/")
                   : "/proc/" + std::to_string(pid) + "/") +
         leaf;
}

}  // namespace

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

void note(const std::string& text) { std::cout << "# " << text << '\n'; }

void note_walls(const std::vector<double>& walls) {
  std::ostringstream line;
  line << "op walls (s):";
  for (const double w : walls) line << ' ' << w;
  note(line.str());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> guarded_percentile(const std::string& name,
                                         std::vector<double> samples,
                                         double q) {
  const std::size_t n = samples.size();
  // Nearest rank: the smallest value with at least q*n samples at or below.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t beyond = n - std::min(n, rank);
  std::ostringstream line;
  line << name << ": " << n << " samples, " << beyond << " beyond p"
       << q * 100.0;
  if (beyond < 10) {
    note(line.str() + " -- refused (needs at least 10 beyond)");
    return std::nullopt;
  }
  note(line.str());
  std::sort(samples.begin(), samples.end());
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

void reset_peak_rss(pid_t pid) {
  std::ofstream out(proc_path(pid, "clear_refs"));
  out << "5\n";
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string render_csv(const std::vector<bsld::report::RunResult>& results) {
  std::ostringstream out;
  bsld::report::CsvResultSink sink(out);
  for (std::size_t i = 0; i < results.size(); ++i) {
    sink.on_result(i, results[i]);
  }
  return out.str();
}

std::string digest(const std::string& bytes) {
  return bsld::util::hex64(bsld::util::fnv1a64(bytes));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

void add_request_metrics(Outcome& outcome, const std::vector<double>& hit_ms,
                         const std::vector<double>& miss_ms,
                         double measured_s) {
  outcome.add("req_per_s",
              static_cast<double>(hit_ms.size() + miss_ms.size()) / measured_s,
              "1/s");
  const auto reported = [&](const char* name,
                            const std::vector<double>& samples, double q) {
    const std::optional<double> value = guarded_percentile(name, samples, q);
    // A refused percentile leaves a metric the run must report missing.
    if (!value) outcome.correct = false;
    outcome.add(name, value.value_or(0.0), "ms");
  };
  // Hit percentiles are printed with their sample counts, not reported: a
  // hit is tens of microseconds in stream-swf and its median there did not
  // repeat between runs on a shared 4-CPU VM, nor did any workload's p99.
  (void)guarded_percentile("hit_p50_ms", hit_ms, 0.5);
  (void)guarded_percentile("hit_p99_ms", hit_ms, 0.99);
  reported("miss_p50_ms", miss_ms, 0.5);
  reported("miss_p90_ms", miss_ms, 0.9);
}

void add_span_metrics(Outcome& outcome, double ops) {
  using trace::Kind;
  const auto totals = trace::totals();
  const auto at = [&](Kind kind) {
    return totals[static_cast<std::size_t>(kind)];
  };
  const auto per_op_s = [&](std::int64_t ns) { return ns / 1e9 / ops; };
  const auto per_op = [&](std::uint64_t count) {
    return static_cast<double>(count) / ops;
  };
  const trace::Counters counters = trace::counters();
  outcome.add("workload.pull_s", per_op_s(at(Kind::kPull).total_ns), "s");
  outcome.add("workload.jobs_pulled", per_op(counters.jobs_pulled), "count");
  outcome.add("core.policy_self_s", per_op_s(at(Kind::kPolicy).self_ns), "s");
  outcome.add("core.policy_calls", per_op(at(Kind::kPolicy).count), "count");
  outcome.add("core.assign_s", per_op_s(at(Kind::kAssign).total_ns), "s");
  outcome.add("core.assign_calls", per_op(at(Kind::kAssign).count), "count");
  outcome.add("sim.self_s", per_op_s(at(Kind::kSimRun).self_ns), "s");
  outcome.add("sim.start_job_s", per_op_s(at(Kind::kStartJob).self_ns), "s");
  outcome.add("sim.events", per_op(counters.events), "count");
  outcome.add("sim.observer_batches", per_op(counters.batches), "count");
  outcome.add("sim.events_per_batch",
              counters.batches == 0
                  ? 0.0
                  : static_cast<double>(counters.events) /
                        static_cast<double>(counters.batches),
              "count");
  outcome.add("pm.hook_s", per_op_s(at(Kind::kPmHook).total_ns), "s");
  outcome.add("pm.hook_calls", per_op(at(Kind::kPmHook).count), "count");
  outcome.add("report.cache_store_ms", mean_span_ms(Kind::kCacheStore), "ms");
  outcome.add("report.cache_lookup_ms", mean_span_ms(Kind::kCacheLookup),
              "ms");
  outcome.add("report.expand_ms", mean_span_ms(Kind::kExpand), "ms");
  outcome.add("report.render_ms", mean_span_ms(Kind::kRender), "ms");
}

double mean_span_ms(trace::Kind kind) {
  const trace::Totals t = trace::totals()[static_cast<std::size_t>(kind)];
  return t.count == 0 ? 0.0 : t.total_ns / 1e6 / static_cast<double>(t.count);
}

void add_missing_layer_metrics(Outcome& outcome) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const bool present =
        std::any_of(outcome.metrics.begin(), outcome.metrics.end(),
                    [&](const Metric& m) { return m.name == name; });
    if (!present) outcome.add(name, 0.0, unit);
  }
}

void add_overhead(Outcome& outcome, double untraced_s, double traced_s) {
  outcome.add("trace.overhead_pct",
              untraced_s > 0.0 ? (traced_s / untraced_s - 1.0) * 100.0 : 0.0,
              "%");
  outcome.add("trace.untraced_s", untraced_s, "s");
  outcome.add("trace.traced_s", traced_s, "s");
}

void dump_trace(const Args& args) {
  const std::string path = args.workdir + "/trace-" + args.workload + ".csv";
  const std::size_t written = trace::write_records(path);
  note("trace: " + std::to_string(written) + " span records written to " +
       path);
}

}  // namespace perfbench
