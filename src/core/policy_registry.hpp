/// \file policy_registry.hpp
/// \brief String-keyed construction of scheduling policies and frequency
/// assigners — the open counterpart of the closed BasePolicy enum.
///
/// Mirrors cluster::make_selector: a PolicySpec names a policy ("easy",
/// "fcfs", "conservative", "easy+raise") and an assigner ("ftop", "bsld",
/// or auto-derived from the DVFS config) and carries their tunables; the
/// PolicyRegistry resolves names to factories. Downstream code can register
/// additional policies/assigners under new names without touching core —
/// every entry point that consumes a report::RunSpec picks them up
/// automatically.
///
/// Each of the two tables is a util::Registry (util/registry.hpp), the same
/// one behind pm::PowerManagerRegistry and sim::InstrumentRegistry:
/// register before experiment grids start executing.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dynamic_raise.hpp"
#include "core/frequency.hpp"
#include "util/config.hpp"
#include "util/registry.hpp"

namespace bsld::core {

/// Declarative description of a fully-configured scheduling policy.
struct PolicySpec {
  /// Registry key: "easy", "fcfs", "conservative", "easy+raise", or any
  /// downstream-registered name.
  std::string name = "easy";
  /// Resource selector, resolved by cluster::make_selector.
  std::string selector = "FirstFit";
  /// Frequency assigner registry key; empty = auto ("bsld" when `dvfs`
  /// holds a config, "ftop" otherwise).
  std::string assigner;
  std::optional<DvfsConfig> dvfs;          ///< nullopt = no-DVFS baseline.
  std::optional<DynamicRaiseConfig> raise; ///< Dynamic-raise extension.

  /// The registry key actually looked up: "easy" with a raise config set
  /// resolves to "easy+raise", everything else resolves to `name`.
  [[nodiscard]] std::string resolved_name() const;

  /// The assigner key actually looked up (applies the auto rule).
  [[nodiscard]] std::string resolved_assigner() const;

  friend bool operator==(const PolicySpec&, const PolicySpec&) = default;
};

/// Name -> factory resolution for policies and frequency assigners: two
/// util::Registry tables behind the policy/assigner-named methods.
class PolicyRegistry {
  using Policies = util::Registry<SchedulingPolicy, const PolicySpec&>;
  using Assigners = util::Registry<FrequencyAssigner, const PolicySpec&>;

 public:
  using PolicyFactory = Policies::Factory;
  using AssignerFactory = Assigners::Factory;

  /// The process-wide registry, pre-loaded with the built-ins.
  static PolicyRegistry& global();

  /// Registers a policy factory, optionally with a one-line description
  /// shown by `bsldsim --list-policies`. Throws bsld::Error on an empty or
  /// duplicate name or a null factory.
  void add_policy(const std::string& name, PolicyFactory factory) {
    policies_.add(name, std::move(factory));
  }
  void add_policy(const std::string& name, std::string description,
                  PolicyFactory factory) {
    policies_.add(name, std::move(description), std::move(factory));
  }

  /// Same for frequency assigners.
  void add_assigner(const std::string& name, AssignerFactory factory) {
    assigners_.add(name, std::move(factory));
  }
  void add_assigner(const std::string& name, std::string description,
                    AssignerFactory factory) {
    assigners_.add(name, std::move(description), std::move(factory));
  }

  /// Throw bsld::Error when `name` is unknown, listing what is registered.
  void require_policy(const std::string& name) const {
    policies_.require(name);
  }
  void require_assigner(const std::string& name) const {
    assigners_.require(name);
  }

  /// Registered names in sorted order (for error messages and --help).
  [[nodiscard]] std::vector<std::string> policy_names() const {
    return policies_.names();
  }
  [[nodiscard]] std::vector<std::string> assigner_names() const {
    return assigners_.names();
  }

  /// (name, description) pairs in sorted order; descriptions registered
  /// without one are empty.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  policy_entries() const {
    return policies_.entries();
  }
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  assigner_entries() const {
    return assigners_.entries();
  }

  /// Builds the policy `spec` describes (via resolved_name()). Throws
  /// bsld::Error on unknown names, listing what is registered, and when
  /// the factory returns null.
  [[nodiscard]] std::unique_ptr<SchedulingPolicy> make(
      const PolicySpec& spec) const {
    return policies_.make(spec.resolved_name(), spec);
  }

  /// Builds the frequency assigner `spec` describes (via
  /// resolved_assigner()), with the same errors as make().
  [[nodiscard]] std::unique_ptr<FrequencyAssigner> make_assigner(
      const PolicySpec& spec) const {
    return assigners_.make(spec.resolved_assigner(), spec);
  }

 private:
  Policies policies_{"PolicyRegistry", "policy"};
  Assigners assigners_{"PolicyRegistry", "assigner"};
};

/// Reads a PolicySpec from `policy.*` config keys (see policy_to_config).
/// Validates the policy and assigner names against the global registry.
PolicySpec policy_from_config(const util::Config& config);

/// Writes the canonical `policy.*` keys: name and selector always, DVFS
/// keys only when configured, raise keys only when configured, so
/// round-trips are byte-identical.
void policy_to_config(const PolicySpec& spec, util::Config& config);

/// Display form for labels/tables: "EASY BSLD<=2,WQ<=16", "FCFS noDVFS",
/// "EASY+raise>16 BSLD<=2,WQ<=NO", ...
std::string policy_label(const PolicySpec& spec);

}  // namespace bsld::core
