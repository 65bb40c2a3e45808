/// \file engine.hpp
/// \brief Event-driven simulation engine (the Alvio-equivalent substrate).
///
/// A binary min-heap over a std::vector, ordered by the (time, kind,
/// sequence) total order of event.hpp. The queue stays small: it holds
/// the running jobs' completions, pending power-manager timers and the
/// single outstanding submit (see simulation.hpp), so the heap stays
/// shallow.
///
/// Determinism contract: pop order is exactly EventBefore order, and the
/// sequence assigned in schedule() makes it total. Scheduling an event in
/// the past is a hard error (it would silently corrupt causality).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/event.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace bsld::sim {

/// Binary-heap event engine with a monotonic clock.
///
/// Not reentrant and not thread-safe: one engine belongs to one
/// simulation on one thread (the confinement rule of observer.hpp).
class Engine {
 public:
  /// Current simulation time (0 before the first event). Units: simulated
  /// seconds, monotonically non-decreasing.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `event` (its `sequence` is assigned here, making engine
  /// order total). Throws bsld::Error when the event lies in the past
  /// (event.time < now()). O(log pending).
  void schedule(Event event) {
    BSLD_REQUIRE(event.time >= now_, "Engine: scheduling an event in the past");
    event.sequence = next_sequence_++;
    heap_.push_back(event);
    std::push_heap(heap_.begin(), heap_.end(), after);
  }

  /// Pops the next event in (time, kind, sequence) order and advances the
  /// clock to its time; nullopt when drained. O(log pending).
  std::optional<Event> pop() {
    if (heap_.empty()) return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), after);
    const Event event = heap_.back();
    heap_.pop_back();
    now_ = event.time;
    ++processed_;
    return event;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  /// Total events processed so far (microbenchmark metric).
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

 private:
  /// Heap comparator: std heaps keep the comparator's maximum on top, so
  /// "pops later" puts the earliest event there.
  static bool after(const Event& a, const Event& b) {
    return EventBefore{}(b, a);
  }

  std::vector<Event> heap_;
  Time now_ = 0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace bsld::sim
