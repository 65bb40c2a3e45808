/// \file event.hpp
/// \brief Power-management events: the pm subsystem's observable actions.
///
/// Every decision a pm::PowerManager takes (throttling a job under a cap,
/// gating an admission, waking sleeping CPUs, moving the effective cap of
/// the closed-loop controller) is emitted as a PmEvent into the run's
/// sim::SimObserver stream via pm::PmContext::emit, so instruments can
/// account capped and sleeping intervals without the manager knowing who
/// listens. The struct is deliberately flat and union-like — one type for
/// all kinds keeps it to one alternative of sim::BatchedEvent; the per-kind
/// field meaning is documented on the enum.
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace bsld::pm {

/// What happened. Field usage per kind (unused fields stay defaulted):
enum class PmEventKind : int {
  /// The effective cluster power cap moved (setpoint control step):
  /// `watts` = new cap, `aux_watts` = measured cluster power.
  kCapChange = 0,
  /// A running job's gear was lowered to fit the cap: `job`, `cpu_count`,
  /// `gear_from` > `gear_to`.
  kThrottle = 1,
  /// A previously-throttled job got slack back: `job`, `cpu_count`,
  /// `gear_from` < `gear_to` (never above the policy-assigned gear).
  kRaise = 2,
  /// An admission was power-gated — the job holds its CPUs but makes no
  /// progress until released: `job`, `cpu_count`.
  kGate = 3,
  /// A gated job was released into execution: `job`, `cpu_count`,
  /// `gear_to` = execution gear, `seconds` = time spent gated.
  kRelease = 4,
  /// The cap cannot fit even one job at the lowest gear; the manager
  /// force-admits rather than deadlock: `job`, `cpu_count`, `watts` = cap.
  kInfeasible = 5,
  /// Idle CPUs completed a sleep interval in one C-state: `cpu_count`,
  /// `sleep_state`, `watts` = per-CPU state power, `seconds` =
  /// core-seconds slept in that state.
  kSleepInterval = 6,
  /// Sleeping CPUs were woken for an allocation: `cpu_count` = CPUs woken,
  /// `seconds` = wake latency charged to the allocation.
  kWake = 7,
};

/// Display name of a kind ("cap-change", "throttle", ...).
[[nodiscard]] const char* to_string(PmEventKind kind);

/// One power-management action, stamped with simulation time. Emitted by
/// managers through PmContext::emit and delivered to every observer as a
/// record of sim::SimObserver::on_events (the "pm-trace" instrument records
/// them all).
struct PmEvent {
  PmEventKind kind = PmEventKind::kCapChange;
  Time time = 0;
  JobId job = kNoJob;
  std::int32_t cpu_count = 0;
  GearIndex gear_from = 0;
  GearIndex gear_to = 0;
  double watts = 0.0;          ///< Primary power figure of the event.
  double aux_watts = 0.0;      ///< Secondary power figure (kCapChange).
  double seconds = 0.0;        ///< Duration figure (gated/slept/wake delay).
  std::int32_t sleep_state = -1;  ///< C-state index (kSleepInterval only).
};

}  // namespace bsld::pm
