#include "sim/arena.hpp"

#include <utility>

namespace bsld::sim {

RunArena& RunArena::local() {
  thread_local RunArena arena;
  return arena;
}

Engine::Storage RunArena::acquire_engine() {
  Engine::Storage out = std::move(engine_);
  engine_ = Engine::Storage{};
  return out;
}

void RunArena::recycle_engine(Engine::Storage&& storage) {
  engine_ = std::move(storage);
  ++engine_recycles_;
}

JobWindow::Storage RunArena::acquire_job_window() {
  JobWindow::Storage out = std::move(job_window_);
  job_window_ = JobWindow::Storage{};
  return out;
}

void RunArena::recycle_job_window(JobWindow::Storage&& storage) {
  job_window_ = std::move(storage);
}

}  // namespace bsld::sim
