/// \file trace.hpp
/// \brief Span tracing from outside the simulator, for the traced run.
///
/// Every span is timed in the benchmark's own code around a call into a
/// public seam of the library: delegating wrappers registered under their
/// own names in core::PolicyRegistry (policy + assigner),
/// pm::PowerManagerRegistry and sim::InstrumentRegistry, a JobStream
/// decorator, a SchedulerContext decorator around start_job, and direct
/// Span objects around ResultCache / expand_grid / sink / SweepService
/// calls. Nothing inside src/ knows it is being traced.
///
/// Each thread keeps a span stack, per-kind totals (count, total, self
/// time = duration minus the time covered by child spans) and the first
/// kRecordCap span records (name, start, end, thread, parent). Totals are
/// exact however many spans a run makes; records are the sample written
/// out at exit. Read totals only while no traced thread is running.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "report/experiment.hpp"
#include "workload/stream.hpp"

namespace perfbench::trace {

enum class Kind : std::uint8_t {
  kSimRun,     ///< Simulation::run, probe on_run_begin .. on_run_end.
  kPull,       ///< JobStream::next.
  kPolicy,     ///< SchedulingPolicy::on_submit / on_job_end.
  kAssign,     ///< FrequencyAssigner reservation_gear / backfill_gear.
  kStartJob,   ///< SchedulerContext::start_job.
  kPmHook,     ///< Any PowerManager hook.
  kSpec,       ///< One grid spec on a sweep worker (completion to completion).
  kCacheLookup,
  kCacheStore,
  kExpand,     ///< expand_grid + RunSpec::key.
  kRender,     ///< CsvResultSink rendering.
  kService,    ///< server::SweepService::run.
  kRequest,    ///< Client round trip of one daemon request.
  kCount
};

[[nodiscard]] const char* kind_name(Kind kind);

struct Totals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

using Clock = std::chrono::steady_clock;

/// RAII span on the calling thread's stack.
class Span {
 public:
  explicit Span(Kind kind);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// Opens / closes a span whose begin and end are separate callbacks on the
/// same thread (the probe instrument's on_run_begin / on_run_end).
void begin(Kind kind);
void end(Kind kind);

/// Records an already-finished leaf span (measured by the caller).
void record(Kind kind, Clock::time_point start, Clock::time_point end);

/// Totals of every thread, per kind.
[[nodiscard]] std::array<Totals, static_cast<std::size_t>(Kind::kCount)>
totals();

/// Counters kept by the wrappers themselves.
struct Counters {
  std::uint64_t jobs_pulled = 0;
  std::uint64_t events = 0;   ///< Observer events delivered to the probe.
  std::uint64_t batches = 0;  ///< on_events calls.
};
[[nodiscard]] Counters counters();

/// Clears totals, counters and records of every thread.
void reset();

/// Writes every kept span record as CSV; returns the number written.
std::size_t write_records(const std::string& path);

/// Registers the traced-* wrappers (idempotent).
void register_wrappers();

/// `spec` rerouted through the wrappers: policy, assigner and (when
/// enabled) power manager by their traced names, plus the probe
/// instrument. Results are bit-identical to `spec`'s; only labels differ.
[[nodiscard]] bsld::report::RunSpec traced(const bsld::report::RunSpec& spec);

/// A JobStream decorator timing every next() as a kPull span.
[[nodiscard]] std::unique_ptr<bsld::wl::JobStream> timed(
    std::unique_ptr<bsld::wl::JobStream> inner);

}  // namespace perfbench::trace
