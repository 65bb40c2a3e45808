#include "pm/spec.hpp"

#include <sstream>

#include "pm/registry.hpp"
#include "util/error.hpp"

namespace bsld::pm {

namespace {

void require_absent(const PmSpec& spec, bool cap_allowed) {
  if (!cap_allowed) {
    BSLD_REQUIRE(!spec.cap_watts.has_value(),
                 "pm.cap_watts only applies to the capping managers "
                 "(cap-uniform, cap-proportional, setpoint), not pm=" +
                     spec.name);
  }
  BSLD_REQUIRE(!spec.setpoint_watts.has_value(),
               "pm.setpoint_watts only applies to pm=setpoint, not pm=" +
                   spec.name);
  BSLD_REQUIRE(!spec.interval_s.has_value(),
               "pm.interval_s only applies to pm=setpoint, not pm=" +
                   spec.name);
  BSLD_REQUIRE(!spec.gain.has_value(),
               "pm.gain only applies to pm=setpoint, not pm=" + spec.name);
}

}  // namespace

void bind_config(util::ConfigCodec& codec, PmSpec& spec) {
  codec.non_default("pm", spec.name, std::string("none"));
  codec.optional("pm.cap_watts", spec.cap_watts);
  codec.optional("pm.setpoint_watts", spec.setpoint_watts);
  codec.optional("pm.interval_s", spec.interval_s);
  codec.optional("pm.gain", spec.gain);
  if (codec.reading()) validate(spec);
}

void validate(const PmSpec& spec) {
  PowerManagerRegistry::global().require(spec.name);
  if (spec.name == "cap-uniform" || spec.name == "cap-proportional") {
    BSLD_REQUIRE(spec.cap_watts.has_value(),
                 "pm=" + spec.name + " requires pm.cap_watts");
    BSLD_REQUIRE(*spec.cap_watts > 0.0, "pm.cap_watts must be positive");
    require_absent(spec, /*cap_allowed=*/true);
    return;
  }
  if (spec.name == "setpoint") {
    BSLD_REQUIRE(spec.setpoint_watts.has_value(),
                 "pm=setpoint requires pm.setpoint_watts");
    BSLD_REQUIRE(*spec.setpoint_watts > 0.0,
                 "pm.setpoint_watts must be positive");
    if (spec.cap_watts.has_value()) {
      BSLD_REQUIRE(*spec.cap_watts > 0.0,
                   "pm.cap_watts (initial cap) must be positive");
    }
    if (spec.interval_s.has_value()) {
      BSLD_REQUIRE(*spec.interval_s >= 1,
                   "pm.interval_s must be at least 1 second");
    }
    if (spec.gain.has_value()) {
      BSLD_REQUIRE(*spec.gain > 0.0, "pm.gain must be positive");
    }
    return;
  }
  if (spec.name == "none" || spec.name == "sleep") {
    require_absent(spec, /*cap_allowed=*/false);
    return;
  }
  // Downstream-registered managers own their parameter rules; the name
  // check above is all we can enforce here.
}

std::string pm_label(const PmSpec& spec) {
  if (!spec.enabled()) {
    return "";
  }
  std::ostringstream os;
  os << spec.name;
  if (spec.name == "setpoint" && spec.setpoint_watts.has_value()) {
    os << '@' << *spec.setpoint_watts << 'W';
  } else if (spec.cap_watts.has_value()) {
    os << '@' << *spec.cap_watts << 'W';
  }
  return os.str();
}

}  // namespace bsld::pm
