/// \file spec.hpp
/// \brief Serializable description of a power-management configuration.
///
/// PmSpec is to pm what core::PolicySpec is to scheduling: the value that
/// rides inside report::RunSpec, round-trips byte-identically through
/// util::Config (bind_config), and is validated against the
/// PowerManagerRegistry at parse time. The default ("none") serializes to
/// nothing at all, so every pre-existing spec key — and therefore every
/// warm cache entry — is unchanged by the subsystem's existence.
#pragma once

#include <optional>
#include <string>

#include "util/config.hpp"
#include "util/types.hpp"

namespace bsld::pm {

/// Which manager to run and its parameters. Family rules (enforced by
/// validate()): `cap-uniform`/`cap-proportional` require cap_watts;
/// `setpoint` requires setpoint_watts and accepts cap_watts (initial cap,
/// defaults to the setpoint), interval_s (control period, default 300 s)
/// and gain (correction per watt of error, default 0.5); `none` and
/// `sleep` take no parameters.
struct PmSpec {
  std::string name = "none";
  std::optional<double> cap_watts;
  std::optional<double> setpoint_watts;
  std::optional<Time> interval_s;
  std::optional<double> gain;

  /// True when a manager other than the no-op default is requested.
  [[nodiscard]] bool enabled() const { return name != "none"; }

  friend bool operator==(const PmSpec&, const PmSpec&) = default;
};

/// The `pm` / `pm.*` keys (util::ConfigCodec): `pm` only when not "none",
/// each tunable only when set, so the default spec writes nothing at all.
/// Reading validates the result (absent keys mean the no-op default) and
/// throws bsld::Error on unknown manager names or family-rule violations.
void bind_config(util::ConfigCodec& codec, PmSpec& spec);

/// Checks the name against the registry and the family rules above.
/// Throws bsld::Error with an actionable message on violation.
void validate(const PmSpec& spec);

/// Short human label, e.g. "cap-uniform@5000W" or "sleep"; empty for the
/// default spec (run labels omit it).
[[nodiscard]] std::string pm_label(const PmSpec& spec);

}  // namespace bsld::pm
