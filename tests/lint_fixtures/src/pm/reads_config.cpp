// Fixture: a hand-written config read outside util/config — the shape of
// a key that is read but never written back (config-one-way).
#include "util/config.hpp"

namespace bsld::pm {

double cap(const util::Config& config) {
  return config.get_double("pm.cap_watts", 0.0);  // lint-expect: config-one-way
}

double cap_via_pointer(const util::Config* config) {
  return config->get_double_list("pm.caps", {}).at(0);  // lint-expect: config-one-way
}

void bind(util::ConfigCodec& codec, double& watts) {
  codec.field("pm.cap_watts", watts);  // the codec form is fine.
}

}  // namespace bsld::pm
