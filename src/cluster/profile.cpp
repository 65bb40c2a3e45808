#include "cluster/profile.hpp"

#include <vector>

#include "util/error.hpp"

namespace bsld::cluster {

AvailabilityProfile::AvailabilityProfile(std::int32_t capacity, Time origin)
    : capacity_(capacity), origin_(origin) {
  BSLD_REQUIRE(capacity > 0, "AvailabilityProfile: capacity must be positive");
}

void AvailabilityProfile::reserve(Time start, Time end, std::int32_t size) {
  BSLD_REQUIRE(size > 0, "AvailabilityProfile: size must be positive");
  BSLD_REQUIRE(start >= origin_, "AvailabilityProfile: start before origin");
  BSLD_REQUIRE(end > start, "AvailabilityProfile: empty or inverted interval");
  // Verify capacity across [start, end) before mutating.
  BSLD_REQUIRE(free_at(start) >= size,
               "AvailabilityProfile: overcommitted at interval start");
  for (auto it = deltas_.upper_bound(start); it != deltas_.end() && it->first < end;
       ++it) {
    BSLD_REQUIRE(free_at(it->first) >= size,
                 "AvailabilityProfile: overcommitted inside interval");
  }
  deltas_[start] -= size;
  deltas_[end] += size;
}

std::int32_t AvailabilityProfile::free_at(Time t) const {
  BSLD_REQUIRE(t >= origin_, "AvailabilityProfile: query before origin");
  std::int32_t free = capacity_;
  for (const auto& [time, delta] : deltas_) {
    if (time > t) break;
    free += delta;
  }
  return free;
}

Time AvailabilityProfile::earliest_slot(std::int32_t size, Time duration,
                                        Time after) const {
  BSLD_REQUIRE(size > 0 && size <= capacity_,
               "AvailabilityProfile: slot size outside [1, capacity]");
  BSLD_REQUIRE(duration >= 1, "AvailabilityProfile: duration must be >= 1");
  after = std::max(after, origin_);

  // Candidate starts: `after` and every breakpoint at which capacity rises.
  std::vector<Time> candidates = {after};
  for (const auto& [time, delta] : deltas_) {
    if (time > after && delta > 0) candidates.push_back(time);
  }
  for (const Time candidate : candidates) {
    if (free_at(candidate) < size) continue;
    // Check the window [candidate, candidate + duration).
    bool fits = true;
    for (auto it = deltas_.upper_bound(candidate);
         it != deltas_.end() && it->first < candidate + duration; ++it) {
      if (free_at(it->first) < size) {
        fits = false;
        break;
      }
    }
    if (fits) return candidate;
  }
  // Unreachable: after the last breakpoint the profile is back to full
  // capacity, so the last rising breakpoint (or `after`) always fits.
  throw Error("AvailabilityProfile: no slot found (invariant violation)");
}

}  // namespace bsld::cluster
