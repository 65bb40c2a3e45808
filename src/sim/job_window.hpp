/// \file job_window.hpp
/// \brief Bounded ring of in-flight jobs addressed by global trace index.
///
/// The streaming simulation never holds the whole trace: a job enters the
/// window when its submit event is scheduled (one submit is outstanding at
/// a time) and leaves once it has finished *and* its batched observer
/// records have been delivered. Engine events and observer records carry
/// the job's *global* trace index — its 0-based position in stream order —
/// and the window maps that index to a slot in a power-of-two ring
/// (slot = global & (capacity - 1)). Because admissions are contiguous and
/// evictions retire the oldest live index first, a global index is live iff
/// it lies in [evicted(), admitted()); a stale engine event for an already
/// evicted job is detected by that range check alone, with no per-slot
/// generation counters.
///
/// Capacity grows geometrically when the live span outruns the ring, so a
/// run's memory is bounded by the next job plus the number of jobs
/// simultaneously queued, running or awaiting delivery. peak_live()
/// reports the high-water mark — the number
/// SimulationResult::peak_live_jobs exposes and the million-job memory test
/// asserts on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/types.hpp"
#include "workload/job.hpp"

namespace bsld::sim {

/// Live state of an executing job, valid while `running` is set. The CPU
/// set lives in the machine, reached through the job's first CPU — no per-job
/// heap allocation. Energy is accounted per gear segment so mid-flight gear
/// raises stay exact; remaining work is tracked in top-gear seconds
/// (running at gear g consumes 1/Coef(g) top-seconds of work per wall
/// second).
struct RunningRec {
  CpuId first_cpu = 0;            ///< The job's machine handle.
  GearIndex gear = 0;
  GearIndex start_gear = 0;       ///< Gear engaged at start.
  Time segment_start = 0;         ///< When the current gear was engaged
                                  ///< (in the future during a wake delay).
  double remaining_run_top = 0;   ///< Runtime work left, top-gear seconds.
  double remaining_req_top = 0;   ///< Requested work left, top-gear seconds.
  Time pending_end = kNoTime;     ///< Valid completion event time.
  Time start = kNoTime;           ///< When the job began executing.
  Time scaled_requested = 0;      ///< Requested time dilated at start.
  bool boosted = false;           ///< Raised mid-flight.
  bool gated = false;             ///< Power-gated: holds CPUs, no progress,
                                  ///< no completion event until released.
  bool running = false;           ///< Row is live.
};

/// Ring buffer of in-flight jobs (see file comment for the addressing and
/// lifetime contract). Not thread-safe; owned by one simulation.
class JobWindow {
 public:
  /// One ring slot: the trace record plus its execution state.
  struct Slot {
    wl::Job job;
    RunningRec state;
    bool started = false;  ///< start_job() ran for this trace index.
  };
  /// The ring starts at a small power-of-two size and grows on demand.
  JobWindow() : slots_(kInitialCapacity) {}

  /// Admits the next trace index. `global` must equal admitted() —
  /// admissions are contiguous by construction. Returns the slot, reset.
  Slot& admit(std::uint64_t global, wl::Job job) {
    BSLD_REQUIRE(global == admitted_,
                 "JobWindow: admissions must be contiguous");
    if (admitted_ - evicted_ == slots_.size()) grow();
    Slot& slot = slots_[static_cast<std::size_t>(global) &
                        (slots_.size() - 1)];
    slot.job = std::move(job);
    slot.state = RunningRec{};
    slot.started = false;
    ++admitted_;
    peak_live_ = std::max(peak_live_, admitted_ - evicted_);
    return slot;
  }

  /// True while `global` is admitted and not yet evicted.
  [[nodiscard]] bool contains(std::uint64_t global) const {
    return global >= evicted_ && global < admitted_;
  }

  [[nodiscard]] Slot& at(std::uint64_t global) {
    BSLD_REQUIRE(contains(global),
                 "JobWindow: trace index outside the live window");
    return slots_[static_cast<std::size_t>(global) & (slots_.size() - 1)];
  }
  [[nodiscard]] const Slot& at(std::uint64_t global) const {
    BSLD_REQUIRE(contains(global),
                 "JobWindow: trace index outside the live window");
    return slots_[static_cast<std::size_t>(global) & (slots_.size() - 1)];
  }

  /// Oldest live slot (the eviction candidate). live() must be > 0.
  [[nodiscard]] Slot& front() { return at(evicted_); }

  /// Retires the oldest live index. Only the front can be evicted — a
  /// finished job behind a still-live older one stays resident until the
  /// older one retires (that gap is part of peak_live()).
  void pop_front() {
    BSLD_REQUIRE(evicted_ < admitted_, "JobWindow: pop_front() on empty");
    ++evicted_;
  }

  [[nodiscard]] std::uint64_t admitted() const { return admitted_; }
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }
  [[nodiscard]] std::uint64_t live() const { return admitted_ - evicted_; }
  /// High-water mark of live() over the run — the streaming memory bound.
  [[nodiscard]] std::uint64_t peak_live() const { return peak_live_; }

 private:
  static constexpr std::size_t kInitialCapacity = 1024;

  /// Doubles the ring and re-places every live slot at its new position
  /// (global & (new_capacity - 1)).
  void grow() {
    std::vector<Slot> next(slots_.size() * 2);
    for (std::uint64_t g = evicted_; g < admitted_; ++g) {
      next[static_cast<std::size_t>(g) & (next.size() - 1)] = std::move(
          slots_[static_cast<std::size_t>(g) & (slots_.size() - 1)]);
    }
    slots_ = std::move(next);
  }

  std::vector<Slot> slots_;  ///< Power-of-two ring.
  std::uint64_t admitted_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t peak_live_ = 0;
};

}  // namespace bsld::sim
