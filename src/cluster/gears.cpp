#include "cluster/gears.hpp"

#include <sstream>

#include "util/error.hpp"

namespace bsld::cluster {

GearSet::GearSet(std::vector<Gear> gears) : gears_(std::move(gears)) {
  BSLD_REQUIRE(!gears_.empty(), "GearSet: needs at least one gear");
  for (std::size_t i = 0; i < gears_.size(); ++i) {
    BSLD_REQUIRE(gears_[i].frequency_ghz > 0.0 && gears_[i].voltage_v > 0.0,
                 "GearSet: frequencies and voltages must be positive");
    if (i > 0) {
      BSLD_REQUIRE(gears_[i].frequency_ghz > gears_[i - 1].frequency_ghz,
                   "GearSet: frequencies must be strictly increasing");
      BSLD_REQUIRE(gears_[i].voltage_v >= gears_[i - 1].voltage_v,
                   "GearSet: voltages must be non-decreasing");
    }
  }
}

const Gear& GearSet::operator[](GearIndex index) const {
  BSLD_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < gears_.size(),
               "GearSet: gear index out of range");
  return gears_[static_cast<std::size_t>(index)];
}

double GearSet::frequency_ratio(GearIndex index) const {
  return top().frequency_ghz / (*this)[index].frequency_ghz;
}

std::string GearSet::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < gears_.size(); ++i) {
    if (i != 0) os << ", ";
    os << gears_[i].frequency_ghz << "GHz@" << gears_[i].voltage_v << "V";
  }
  return os.str();
}

GearSet paper_gear_set() {
  return GearSet({{0.8, 1.0},
                  {1.1, 1.1},
                  {1.4, 1.2},
                  {1.7, 1.3},
                  {2.0, 1.4},
                  {2.3, 1.5}});
}

void bind_config(util::ConfigCodec& codec, GearSet& gears) {
  std::vector<Gear> rows = gears.all();
  codec.columns({"gears.frequencies_ghz", "gears.voltages_v"}, rows,
                &Gear::frequency_ghz, &Gear::voltage_v);
  if (codec.reading()) gears = GearSet(std::move(rows));
}

}  // namespace bsld::cluster
