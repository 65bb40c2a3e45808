/// \file first_fit.hpp
/// \brief Resource selection policies. The paper's simulations use First
/// Fit (§3.1): processes are mapped to the lowest-indexed processors that
/// satisfy the allocation constraints. The interface keeps selection
/// pluggable, mirroring Alvio's scheduling-policy / resource-selection
/// split.
///
/// Both selectors walk the machine's CPU bitsets a word at a time, so a
/// selection costs O(size + cpus / 64) (plus, for a future start, the CPUs
/// of the jobs expected to end by then) and never allocates once the
/// caller's output vector has grown.
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

  /// Replaces `out` with `size` CPUs all available by `start` (>= now; per
  /// Machine::available_words). Called by findAllocation once the start
  /// time is known. Throws bsld::Error when fewer than `size` CPUs qualify.
  virtual void select_at(const Machine& machine, std::int32_t size,
                         Time start, Time now,
                         std::vector<CpuId>& out) const = 0;

  /// Backfill selection: replaces `out` with `size` CPUs that are free
  /// *now* and whose use until `expected_end` cannot delay `reservation` (a
  /// CPU inside the reservation may only be used when expected_end <=
  /// reservation->start). Returns false, leaving `out` short, when
  /// impossible. `reservation` may be null.
  [[nodiscard]] virtual bool select_backfill(
      const Machine& machine, std::int32_t size, Time expected_end,
      const Reservation* reservation, std::vector<CpuId>& out) const = 0;

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
  void select_at(const Machine& machine, std::int32_t size, Time start,
                 Time now, std::vector<CpuId>& out) const override;
  [[nodiscard]] bool select_backfill(const Machine& machine,
                                     std::int32_t size, Time expected_end,
                                     const Reservation* reservation,
                                     std::vector<CpuId>& out) const override;
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
