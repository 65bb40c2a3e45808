/// \file arena.hpp
/// \brief Thread-local recycling of per-run simulation storage.
///
/// A parameter sweep runs thousands of simulations per worker thread, and
/// each run used to re-grow the same large buffers from nothing: the
/// engine's calendar-queue slab and the job-window ring. RunArena
/// keeps one drained copy of each per thread; Simulation acquires them in
/// its constructor and recycles them in its destructor, so every run after
/// the first starts warm and performs no large allocations on the hot
/// path. The arena is thread-local (RunArena::local()) because simulations
/// are thread-confined (see observer.hpp) — there is no sharing and no
/// locking.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/job_window.hpp"
#include "util/types.hpp"

namespace bsld::sim {

/// Per-thread pool of recycled run storage. Acquire/recycle pairs are
/// cheap moves; acquiring from an empty arena simply returns empty
/// storage that the run grows once.
class RunArena {
 public:
  /// The calling thread's arena.
  static RunArena& local();

  /// Takes the pooled engine storage (empty on a cold arena).
  [[nodiscard]] Engine::Storage acquire_engine();
  /// Returns drained engine storage to the pool for the next run.
  void recycle_engine(Engine::Storage&& storage);

  /// Takes the pooled job-window ring storage (capacity retained; the
  /// JobWindow constructor discards contents).
  [[nodiscard]] JobWindow::Storage acquire_job_window();
  /// Returns a run's job-window storage to the pool.
  void recycle_job_window(JobWindow::Storage&& storage);

  /// True when the pooled engine storage carries warmed-up capacity —
  /// i.e. at least one engine completed a round trip through this arena.
  [[nodiscard]] bool engine_warm() const { return engine_.slab_nodes > 0; }
  /// Round trips completed (recycle_engine calls), for tests.
  [[nodiscard]] std::uint64_t engine_recycles() const {
    return engine_recycles_;
  }

 private:
  Engine::Storage engine_;
  JobWindow::Storage job_window_;
  std::uint64_t engine_recycles_ = 0;
};

}  // namespace bsld::sim
