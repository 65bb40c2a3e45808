/// \file allocation.hpp
/// \brief The reservation value type shared by schedulers and resource
/// selectors.
///
/// The reserved CPUs are a bitset in the machine's word layout, written a
/// word at a time by ResourceSelector::reserve().
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace bsld::cluster {

/// EASY backfilling reserves CPUs for the head of the wait queue: backfilled
/// jobs must not delay `start` on the reserved CPUs.
struct Reservation {
  JobId job = kNoJob;
  Time start = kNoTime;
  /// Bit c % 64 of word c / 64 is set iff CPU c is reserved. Written whole
  /// by ResourceSelector::reserve(); meaningful only while active().
  std::vector<std::uint64_t> mask;

  [[nodiscard]] bool active() const { return job != kNoJob; }
  [[nodiscard]] bool contains(CpuId cpu) const {
    const auto word = static_cast<std::size_t>(cpu) / 64;
    return active() && word < mask.size() &&
           ((mask[word] >> (cpu % 64)) & 1) != 0;
  }

  /// Drops the reservation but keeps the mask's storage for the next one.
  void clear() {
    job = kNoJob;
    start = kNoTime;
  }
};

}  // namespace bsld::cluster
