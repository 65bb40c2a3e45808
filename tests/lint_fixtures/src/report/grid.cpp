// Fixture: src/report/grid.cpp gets no exemption from config-one-way — a
// sweep axis is read through the codec, like every other key.
#include "util/config.hpp"

namespace bsld::report {

std::vector<double> scales(const util::Config& config) {
  return config.get_double_list("sweep.scales", {});  // lint-expect: config-one-way
}

std::vector<std::string> scales_via_codec(const util::Config& config) {
  std::vector<std::string> items;
  util::ConfigCodec::reader(config).field("sweep.scales", items);  // fine.
  return items;
}

}  // namespace bsld::report
