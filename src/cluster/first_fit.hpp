/// \file first_fit.hpp
/// \brief Resource selection policies. The paper's simulations use First
/// Fit (§3.1): processes are mapped to the lowest-indexed processors that
/// satisfy the allocation constraints. The interface keeps selection
/// pluggable, mirroring Alvio's scheduling-policy / resource-selection
/// split.
///
/// Both choices walk the machine's CPU bitsets a word at a time and never
/// allocate once grown: select_now() lists a starting job's CPUs in O(size
/// + cpus / 64); reserve() writes a future start's CPUs into a mask, whole
/// words while the count allows, in O(cpus / 64 + words ending by then).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/allocation.hpp"
#include "cluster/machine.hpp"

namespace bsld::cluster {

/// Strategy mapping job processes to processors.
class ResourceSelector {
 public:
  virtual ~ResourceSelector() = default;

  /// Replaces `out` with `size` CPUs free now; with an active `reservation`
  /// starting before `expected_end`, only CPUs outside it qualify.
  /// `reservation` may be null. Returns false, leaving `out` short, when
  /// too few qualify; throws bsld::Error unless 1 <= size <= cpu_count.
  [[nodiscard]] virtual bool select_now(const Machine& machine,
                                        std::int32_t size, Time expected_end,
                                        const Reservation* reservation,
                                        std::vector<CpuId>& out) const = 0;

  /// Sets `mask` (resized to the machine's words) to the `size` preferred
  /// CPUs among those available by `start` (>= now; per
  /// Machine::available_words). Throws bsld::Error when fewer qualify or
  /// size is outside [1, cpu_count].
  virtual void reserve(const Machine& machine, std::int32_t size, Time start,
                       Time now, std::vector<std::uint64_t>& mask) const = 0;

  /// Human-readable policy name.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// First Fit (kAscending: the lowest-indexed qualifying CPUs, ascending)
/// or Last Fit (the highest-indexed, descending). Last Fit is functionally
/// equivalent under count-based feasibility; it exists to demonstrate the
/// selector seam and as a control in tests (schedule metrics must not
/// depend on the selector for identical feasibility decisions).
template <bool kAscending>
class Fit final : public ResourceSelector {
 public:
  [[nodiscard]] bool select_now(const Machine& machine, std::int32_t size,
                                Time expected_end,
                                const Reservation* reservation,
                                std::vector<CpuId>& out) const override;
  void reserve(const Machine& machine, std::int32_t size, Time start,
               Time now, std::vector<std::uint64_t>& mask) const override;
  [[nodiscard]] std::string name() const override {
    return kAscending ? "FirstFit" : "LastFit";
  }
};
extern template class Fit<true>;
extern template class Fit<false>;
using FirstFit = Fit<true>;
using LastFit = Fit<false>;

/// Builds a selector by name ("FirstFit", "LastFit"); throws on unknown.
std::unique_ptr<ResourceSelector> make_selector(const std::string& name);

}  // namespace bsld::cluster
