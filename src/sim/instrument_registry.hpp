/// \file instrument_registry.hpp
/// \brief String-keyed construction of measurement instruments — the open
/// counterpart of the fixed default observer set.
///
/// A report::RunSpec names its extra instruments ("wait-trace",
/// "utilization", "pm-trace", ...) and the registry resolves names to
/// factories, so a serialized spec selects views of the event stream the
/// same way it selects policies. Downstream code registers additional
/// instruments under new names without touching sim — bsldsim
/// --instruments=... and SweepRunner grids pick them up automatically.
///
/// The table itself is a util::Registry (util/registry.hpp), the same one
/// behind core::PolicyRegistry and pm::PowerManagerRegistry: register
/// before experiment grids start executing.
#pragma once

#include "power/power_model.hpp"
#include "power/time_model.hpp"
#include "sim/instruments.hpp"
#include "util/registry.hpp"
#include "util/sampler.hpp"

namespace bsld::sim {

/// Per-run context handed to instrument factories: the platform models of
/// the run being instrumented (both outlive the instrument), plus the
/// run's time-series sampling policy (RunSpec `sample.*`; the default
/// plan retains every point).
struct InstrumentContext {
  const power::PowerModel& power_model;
  const power::BetaTimeModel& time_model;
  util::SamplePlan sample{};
};

/// Name -> factory resolution for instruments.
class InstrumentRegistry
    : public util::Registry<Instrument, const InstrumentContext&> {
 public:
  InstrumentRegistry() : Registry("InstrumentRegistry", "instrument") {}

  /// The process-wide registry, pre-loaded with the built-ins: "jobs",
  /// "aggregates", "energy", "wait-trace", "utilization", "pm-trace".
  static InstrumentRegistry& global();
};

}  // namespace bsld::sim
