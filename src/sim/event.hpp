/// \file event.hpp
/// \brief Discrete events of the cluster simulation.
///
/// Ordering is total and deterministic: by time, then kind (completions
/// before submissions at the same instant, so arrivals observe the CPUs
/// freed "now"), then insertion sequence. The engine's heap (engine.hpp)
/// pops in exactly this order; golden-file parity across runs depends on
/// it.
#pragma once

#include <cstdint>
#include <tuple>

#include "util/types.hpp"

namespace bsld::sim {

/// Event kinds; numeric order defines same-time processing order.
enum class EventKind : int {
  kJobEnd = 0,    ///< A running job completed.
  kJobSubmit = 1, ///< A job entered the system.
  kPmTimer = 2,   ///< A power-manager control timer fired (after arrivals,
                  ///< so a control step observes the instant's final state).
};

/// One scheduled event.
///
/// `time` is in simulated seconds (the trace unit; see util/types.hpp).
/// `sequence` is assigned by Engine::schedule and is unique per engine,
/// which makes the (time, kind, sequence) order total: two events never
/// compare equal, so processing order cannot depend on container
/// internals. `job` identifies the subject for kJobEnd/kJobSubmit and is
/// kNoJob for kPmTimer.
struct Event {
  Time time = 0;
  EventKind kind = EventKind::kJobSubmit;
  std::uint64_t sequence = 0;  ///< Assigned by the engine on scheduling.
  JobId job = kNoJob;
};

/// Strict-weak order "a pops before b" (ascending engine order).
struct EventBefore {
  bool operator()(const Event& a, const Event& b) const {
    return std::tuple(a.time, static_cast<int>(a.kind), a.sequence) <
           std::tuple(b.time, static_cast<int>(b.kind), b.sequence);
  }
};

}  // namespace bsld::sim
