/// \file stream.hpp
/// \brief Pull-based job streams: the lazy counterpart of wl::Workload.
///
/// A JobStream yields the rows of a trace one at a time, in submit order,
/// so million-job workloads can flow through the simulation without ever
/// being materialized. Every producer in this library — the synthetic
/// generator, the streaming SWF reader, the archive profiles — implements
/// this interface, and the simulation ingests nothing else: a caller that
/// holds a materialized Workload replays it through a VectorJobStream (see
/// docs/simulation-internals.md, "Job ingestion & streaming").
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "workload/job.hpp"

namespace bsld::wl {

/// A pull-based source of jobs in submit order.
///
/// Contract: next() returns each job exactly once, non-decreasing in
/// submit; the SWF, synthetic and archive sources also order same-time jobs
/// by id, while a VectorJobStream keeps its trace order. After the first
/// empty optional the stream is exhausted and stays exhausted.
/// name()/cpus() are stable across the whole drain. Streams are
/// single-pass and not thread-safe.
class JobStream {
 public:
  virtual ~JobStream() = default;

  /// The next job of the trace, or std::nullopt when exhausted.
  virtual std::optional<Job> next() = 0;

  /// Display name of the trace (Workload::name of the materialized form).
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Machine size the trace targets (Workload::cpus).
  [[nodiscard]] virtual std::int32_t cpus() const = 0;

  /// Total number of jobs the stream will yield, or -1 when that is not
  /// known ahead of time (e.g. an SWF file cleaned on the fly). When
  /// non-negative the hint is exact.
  [[nodiscard]] virtual std::int64_t size_hint() const { return -1; }
};

/// Adapts an already-materialized Workload (moved in) to the stream
/// interface, replaying its jobs in vector order — the bridge for
/// hand-built traces. Pass the workload through sort_by_submit() first
/// when it may be unsorted.
class VectorJobStream final : public JobStream {
 public:
  explicit VectorJobStream(Workload workload)
      : workload_(std::move(workload)) {}

  std::optional<Job> next() override {
    if (next_ >= workload_.jobs.size()) return std::nullopt;
    return workload_.jobs[next_++];
  }
  [[nodiscard]] const std::string& name() const override {
    return workload_.name;
  }
  [[nodiscard]] std::int32_t cpus() const override { return workload_.cpus; }
  [[nodiscard]] std::int64_t size_hint() const override {
    return static_cast<std::int64_t>(workload_.jobs.size());
  }

 private:
  Workload workload_;
  std::size_t next_ = 0;
};

/// Stable-sorts `workload`'s jobs by submit time alone, leaving an already
/// sorted trace untouched. Same-time jobs keep their trace order, which is
/// the order the simulation submits them in; hand-built traces go through
/// here before they are streamed.
void sort_by_submit(Workload& workload);

/// Drains a stream into a materialized Workload. The inverse of
/// VectorJobStream; load_source() is exactly open_stream() + materialize().
Workload materialize(JobStream& stream);

/// Re-orders a nearly-sorted inner stream into strict (submit, id) order
/// through a bounded window of `window` + 1 pending jobs. Ties on
/// (submit, id) keep the inner stream's arrival order — the streaming
/// equivalent of a stable_sort. Memory is O(window), not O(jobs).
///
/// The window is a sorted run plus a small min-heap of late records: a
/// record not below the run's last one (every record of an archive that
/// arrives sorted) is appended to the run in O(1); one that arrives below
/// it goes to the heap in O(log window). next() emits the smaller of the
/// two fronts, so a sorted file never touches the heap.
///
/// If the inner stream is out of order by more than `window` positions the
/// violation is detected at emission time and next() throws bsld::Error —
/// silently emitting a time-travelling job would corrupt the simulation's
/// causality downstream.
class SortingJobStream final : public JobStream {
 public:
  SortingJobStream(std::unique_ptr<JobStream> inner, std::size_t window);

  std::optional<Job> next() override;
  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::int32_t cpus() const override { return inner_->cpus(); }
  [[nodiscard]] std::int64_t size_hint() const override {
    return inner_->size_hint();
  }

 private:
  struct Pending {
    Job job;
    std::uint64_t seq = 0;  ///< Arrival order; stable_sort tie-break.
    /// (submit, id, seq): a strict order, since seq is unique.
    friend bool operator<(const Pending& a, const Pending& b) {
      return std::tie(a.job.submit, a.job.id, a.seq) <
             std::tie(b.job.submit, b.job.id, b.seq);
    }
  };

  void refill();

  std::unique_ptr<JobStream> inner_;
  std::size_t window_;
  /// Pending records in (submit, id, seq) order; in-order arrivals append.
  std::deque<Pending> run_;
  /// Min-heap on (submit, id, seq) of records that arrived below run_.back().
  std::vector<Pending> late_;
  std::uint64_t next_seq_ = 0;
  bool inner_done_ = false;
  bool emitted_any_ = false;
  Time last_submit_ = 0;
  JobId last_id_ = 0;
};

}  // namespace bsld::wl
