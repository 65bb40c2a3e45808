/// \file profile.hpp
/// \brief Availability profile: free-CPU capacity as a piecewise-constant
/// function of time.
///
/// EASY backfilling only ever holds one reservation, so the Machine's
/// "k-th smallest availability time" query suffices. Policies that reserve
/// for *every* queued job — conservative backfilling (core/conservative.hpp)
/// — need the full profile: capacity is no longer monotone in time once
/// future reservations carve holes into it.
#pragma once

#include <map>

#include "util/types.hpp"

namespace bsld::cluster {

/// Piecewise-constant free-capacity timeline over [origin, +inf).
class AvailabilityProfile {
 public:
  /// A profile with `capacity` CPUs free from `origin` onwards.
  AvailabilityProfile(std::int32_t capacity, Time origin);

  /// Removes `size` CPUs from [start, end). Throws bsld::Error when the
  /// interval is invalid, lies before the origin, or would drive capacity
  /// negative anywhere.
  void reserve(Time start, Time end, std::int32_t size);

  /// Free capacity at time t (>= origin).
  [[nodiscard]] std::int32_t free_at(Time t) const;

  /// Earliest start s >= after such that free capacity stays >= size
  /// throughout [s, s + duration). Always exists because the profile
  /// returns to full capacity after the last reservation. Throws
  /// bsld::Error when size exceeds the total capacity.
  [[nodiscard]] Time earliest_slot(std::int32_t size, Time duration,
                                   Time after) const;

  [[nodiscard]] std::int32_t capacity() const { return capacity_; }
  [[nodiscard]] Time origin() const { return origin_; }

 private:
  std::int32_t capacity_;
  Time origin_;
  /// Capacity deltas at each breakpoint; prefix sums give free capacity.
  std::map<Time, std::int32_t> deltas_;
};

}  // namespace bsld::cluster
