/// \file common.hpp
/// \brief What every workload of the benchmark shares: arguments, the
/// result record, timing statistics with a percentile sample guard,
/// measured-phase peak RSS, and output digests.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "report/experiment.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = trace::Clock;

[[nodiscard]] double seconds_between(Clock::time_point from,
                                     Clock::time_point to);
[[nodiscard]] double seconds_since(Clock::time_point from);

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
  std::string bsldsim;  ///< Path of the released bsldsim binary.
  std::string workdir;  ///< Scratch directory inside the checkout.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports; printed as the final JSON line.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// Prints an informational line ("# ...") ahead of the result line.
void note(const std::string& text);

[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or nullopt when
/// fewer than ten samples lie beyond it; prints the sample count either way.
[[nodiscard]] std::optional<double> guarded_percentile(
    const std::string& name, std::vector<double> samples, double q);

/// Resets the peak-RSS mark of `pid` (0 = this process) through
/// /proc/<pid>/clear_refs, so the next reading covers only what follows.
void reset_peak_rss(pid_t pid = 0);

/// VmHWM of `pid` (0 = this process) in MiB.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

/// The CsvResultSink rendering of `results`, row i carrying index i.
[[nodiscard]] std::string render_csv(
    const std::vector<bsld::report::RunResult>& results);

/// 16-hex-digit FNV-1a digest of `bytes`.
[[nodiscard]] std::string digest(const std::string& bytes);

/// Deterministic 64-bit mix of (seed, salt), never 0.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t salt);

/// Notes each op's wall seconds.
void note_walls(const std::vector<double>& walls);

/// Runs `op` repeatedly while at least half of the next one is expected to
/// fit in `budget_s` (always at least once), so the measured time lands
/// within half an op of the budget; returns each op's wall seconds.
template <typename Op>
std::vector<double> repeat_for(double budget_s, Op&& op) {
  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  while (walls.empty() ||
         seconds_since(start) + median(walls) / 2.0 <= budget_s) {
    const Clock::time_point t0 = Clock::now();
    op();
    walls.push_back(seconds_since(t0));
  }
  note_walls(walls);
  return walls;
}

/// The request metrics every workload reports: a hit is a result served
/// from the store, a miss one that had to be simulated. req_per_s counts
/// both over `measured_s`; miss percentiles pass through the sample guard
/// and are reported, hit percentiles are only printed.
void add_request_metrics(Outcome& outcome, const std::vector<double>& hit_ms,
                         const std::vector<double>& miss_ms,
                         double measured_s);

/// Per-layer metrics shared by the traced runs: span totals divided by
/// `ops` (the workload's unit of work), probe counters, and the mean time
/// of each directly timed report seam (store, lookup, expand, render).
void add_span_metrics(Outcome& outcome, double ops);

/// Mean duration of the `kind` spans recorded so far, in ms (0 if none).
[[nodiscard]] double mean_span_ms(trace::Kind kind);

/// Every per-layer metric a workload does not measure reads zero; this
/// fills in the ones `outcome` lacks so each traced run lists all of them.
void add_missing_layer_metrics(Outcome& outcome);

/// Traced-run overhead: how much slower the traced ops ran than the
/// untraced ones, in percent of the untraced time.
void add_overhead(Outcome& outcome, double untraced_s, double traced_s);

/// Writes the kept span records under `args.workdir` and notes the path.
void dump_trace(const Args& args);

int paper_cold(const Args& args, Outcome& outcome);
int stream_swf(const Args& args, Outcome& outcome);
int daemon_mixed(const Args& args, Outcome& outcome);

}  // namespace perfbench
