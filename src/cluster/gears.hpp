/// \file gears.hpp
/// \brief DVFS gear set: the frequency/voltage pairs a processor supports.
///
/// The paper's gear set (Table 2):
///   f (GHz): 0.8  1.1  1.4  1.7  2.0  2.3
///   V (V):   1.0  1.1  1.2  1.3  1.4  1.5
/// Gears are indexed ascending by frequency; index 0 is the lowest gear and
/// `top()` the highest — the frequency-assignment loops of the paper's
/// Fig. 1/2 iterate from index 0 upwards.
#pragma once

#include <string>
#include <vector>

#include "util/config.hpp"
#include "util/types.hpp"

namespace bsld::cluster {

/// One DVFS operating point.
struct Gear {
  double frequency_ghz = 0.0;
  double voltage_v = 0.0;

  friend bool operator==(const Gear&, const Gear&) = default;
};

/// Validated, ascending-ordered set of DVFS gears.
class GearSet {
 public:
  /// Throws bsld::Error unless gears are non-empty, strictly increasing in
  /// frequency, non-decreasing in voltage, and all positive.
  explicit GearSet(std::vector<Gear> gears);

  [[nodiscard]] std::size_t size() const { return gears_.size(); }
  [[nodiscard]] const Gear& operator[](GearIndex index) const;
  [[nodiscard]] GearIndex top_index() const {
    return static_cast<GearIndex>(gears_.size()) - 1;
  }
  [[nodiscard]] const Gear& top() const { return gears_.back(); }
  [[nodiscard]] const Gear& lowest() const { return gears_.front(); }
  [[nodiscard]] const std::vector<Gear>& all() const { return gears_; }

  /// Frequency ratio f_top / f_gear (>= 1), used by the beta time model.
  [[nodiscard]] double frequency_ratio(GearIndex index) const;

  /// "0.8GHz@1.0V, ..., 2.3GHz@1.5V"
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const GearSet&, const GearSet&) = default;

 private:
  std::vector<Gear> gears_;
};

/// The gear set of the paper's Table 2.
GearSet paper_gear_set();

/// The `gears.frequencies_ghz` / `gears.voltages_v` lists
/// (util::ConfigCodec). Reading, an absent list keeps the current gears'
/// column; mismatched lengths or invalid values are bsld::Errors.
void bind_config(util::ConfigCodec& codec, GearSet& gears);

}  // namespace bsld::cluster
