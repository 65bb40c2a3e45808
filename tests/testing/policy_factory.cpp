#include "testing/policy_factory.hpp"

#include "core/policy_registry.hpp"
#include "util/error.hpp"

namespace bsld::core {

namespace {

const char* base_key(BasePolicy base) {
  switch (base) {
    case BasePolicy::kEasy: return "easy";
    case BasePolicy::kFcfs: return "fcfs";
    case BasePolicy::kConservative: return "conservative";
  }
  throw Error("base_key(): unknown base policy");
}

}  // namespace

std::unique_ptr<FrequencyAssigner> make_assigner(
    const std::optional<DvfsConfig>& dvfs) {
  PolicySpec spec;
  spec.dvfs = dvfs;
  return PolicyRegistry::global().make_assigner(spec);
}

std::unique_ptr<SchedulingPolicy> make_policy(
    BasePolicy base, const std::optional<DvfsConfig>& dvfs,
    const std::string& selector_name) {
  PolicySpec spec;
  spec.name = base_key(base);
  spec.dvfs = dvfs;
  spec.selector = selector_name;
  return PolicyRegistry::global().make(spec);
}

std::unique_ptr<SchedulingPolicy> make_dynamic_raise_policy(
    const std::optional<DvfsConfig>& dvfs, DynamicRaiseConfig raise,
    const std::string& selector_name) {
  PolicySpec spec;
  spec.name = "easy";
  spec.dvfs = dvfs;
  spec.raise = raise;  // resolves to "easy+raise"
  spec.selector = selector_name;
  return PolicyRegistry::global().make(spec);
}

BasePolicy base_policy_from_name(const std::string& name) {
  if (name == "easy") return BasePolicy::kEasy;
  if (name == "fcfs") return BasePolicy::kFcfs;
  if (name == "conservative") return BasePolicy::kConservative;
  throw Error("base_policy_from_name(): unknown policy `" + name + "`");
}

}  // namespace bsld::core
