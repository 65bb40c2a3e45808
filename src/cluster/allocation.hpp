/// \file allocation.hpp
/// \brief The reservation value type shared by schedulers and resource
/// selectors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace bsld::cluster {

/// EASY backfilling reserves CPUs for the head of the wait queue: backfilled
/// jobs must not delay `start` on the reserved `cpus`.
struct Reservation {
  JobId job = kNoJob;
  Time start = kNoTime;
  std::vector<CpuId> cpus;
  /// Membership bitset: bit c % 64 of word c / 64 is set iff CPU c is
  /// reserved. Sized to the machine by mark().
  std::vector<std::uint64_t> mask;

  [[nodiscard]] bool active() const { return job != kNoJob; }
  [[nodiscard]] bool contains(CpuId cpu) const {
    const auto word = static_cast<std::size_t>(cpu) / 64;
    return word < mask.size() && ((mask[word] >> (cpu % 64)) & 1) != 0;
  }

  /// Sets the mask bits of `cpus` on a machine of `cpu_count` CPUs.
  void mark(std::int32_t cpu_count) {
    mask.resize(static_cast<std::size_t>(cpu_count + 63) / 64);
    for (const CpuId cpu : cpus) {
      mask[static_cast<std::size_t>(cpu) / 64] |= std::uint64_t{1} << (cpu % 64);
    }
  }

  /// Drops the reservation but keeps its storage for the next one.
  void clear() {
    std::fill(mask.begin(), mask.end(), 0);
    cpus.clear();
    job = kNoJob;
    start = kNoTime;
  }
};

}  // namespace bsld::cluster
