/// \file policy_factory.hpp
/// \brief Convenience constructors wiring selectors, frequency assigners and
/// base policies into the configurations the paper evaluates.
///
/// Test-only, enum-keyed shorthands over core::PolicyRegistry
/// (policy_registry.hpp). The library itself goes through the registry's
/// string-keyed PolicySpec, which is open to downstream-registered
/// policies.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/conservative.hpp"
#include "core/dynamic_raise.hpp"
#include "core/easy.hpp"
#include "core/fcfs.hpp"
#include "core/frequency.hpp"

namespace bsld::core {

/// Identifies the base scheduling policy.
enum class BasePolicy { kEasy, kFcfs, kConservative };

/// Builds a frequency assigner: the BSLD-threshold algorithm when `dvfs`
/// holds a config, the Ftop baseline otherwise.
std::unique_ptr<FrequencyAssigner> make_assigner(
    const std::optional<DvfsConfig>& dvfs);

/// Builds a ready-to-run policy. `selector_name` is resolved by
/// cluster::make_selector ("FirstFit" is the paper's choice).
std::unique_ptr<SchedulingPolicy> make_policy(
    BasePolicy base, const std::optional<DvfsConfig>& dvfs,
    const std::string& selector_name = "FirstFit");

/// EASY + the dynamic frequency-raising extension (paper §7 future work).
std::unique_ptr<SchedulingPolicy> make_dynamic_raise_policy(
    const std::optional<DvfsConfig>& dvfs, DynamicRaiseConfig raise,
    const std::string& selector_name = "FirstFit");

/// Parses "easy"/"fcfs"/"conservative"; throws bsld::Error on unknown.
BasePolicy base_policy_from_name(const std::string& name);

}  // namespace bsld::core
