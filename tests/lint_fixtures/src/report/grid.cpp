// Fixture: src/report/grid.cpp reads its read-only `sweep.*` axes with the
// util::Config getters by design, so config-one-way does not apply here.
#include "util/config.hpp"

namespace bsld::report {

std::vector<double> scales(const util::Config& config) {
  return config.get_double_list("sweep.scales", {});
}

}  // namespace bsld::report
