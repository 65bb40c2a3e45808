/// \file id_map.hpp
/// \brief Open-addressing JobId -> V map for per-job lookups.
///
/// A node-based std::unordered_map allocates on every insert; this table
/// allocates only when it grows and never shrinks, so once warm it serves
/// a whole stream without the allocator. Linear probing over a power-of-two
/// slot array at most half full, Fibonacci hashing, and backward-shift
/// erase (no tombstones). Occupancy is a flag beside the key, so every
/// int64 value, kNoJob included, is a valid key.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace bsld::util {

/// Pointers returned by find() stay valid until the next insert or erase.
template <typename V>
class IdMap {
 public:
  /// The value of `key`, or nullptr when absent.
  [[nodiscard]] V* find(JobId key) {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const V* find(JobId key) const {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] bool contains(JobId key) const { return find(key) != nullptr; }

  /// Adds `key` -> `value` unless `key` is present; returns whether it did.
  [[nodiscard]] bool insert(JobId key, V value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].used; i = (i + 1) & mask()) {
      if (slots_[i].key == key) return false;
    }
    slots_[i] = Slot{key, true, std::move(value)};
    ++size_;
    return true;
  }

  /// Removes `key`; returns whether it was present.
  [[nodiscard]] bool erase(JobId key) {
    std::size_t hole = locate(key);
    if (hole == kAbsent) return false;
    // Move back each later entry of the run whose home is not cyclically
    // in (hole, its slot]; the run then ends at the last hole.
    for (std::size_t i = (hole + 1) & mask(); slots_[i].used;
         i = (i + 1) & mask()) {
      if (((i - home(slots_[i].key)) & mask()) >= ((i - hole) & mask())) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole].used = false;
    --size_;
    return true;
  }

 private:
  struct Slot {
    JobId key = 0;
    bool used = false;
    V value{};
  };
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// Slot of `key`, or kAbsent; an empty slot always ends the probe.
  [[nodiscard]] std::size_t locate(JobId key) const {
    if (slots_.empty()) return kAbsent;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      if (!slots_[i].used) return kAbsent;
      if (slots_[i].key == key) return i;
    }
  }
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  [[nodiscard]] std::size_t home(JobId key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Doubles the slot array (16 slots at first) and re-places every entry.
  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.used) (void)insert(slot.key, std::move(slot.value));
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(slots_.size()).
};

}  // namespace bsld::util
