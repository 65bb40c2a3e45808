#include "core/policy_registry.hpp"

#include <sstream>

#include "core/conservative.hpp"
#include "core/easy.hpp"
#include "core/fcfs.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace bsld::core {

namespace {

std::unique_ptr<cluster::ResourceSelector> selector_for(
    const PolicySpec& spec) {
  return cluster::make_selector(spec.selector);
}

void register_builtins(PolicyRegistry& registry) {
  registry.add_assigner("ftop", "every job starts at the top gear (no DVFS)",
                        [](const PolicySpec&) {
                          return std::make_unique<TopFrequency>();
                        });
  registry.add_assigner(
      "bsld", "BSLD-threshold gear selection (the paper's policy)",
      [](const PolicySpec& spec) {
        BSLD_REQUIRE(spec.dvfs.has_value(),
                     "PolicyRegistry: assigner `bsld` needs a DVFS config");
        return std::make_unique<BsldThresholdAssigner>(*spec.dvfs);
      });

  registry.add_policy(
      "easy", "aggressive EASY backfilling (the paper's baseline scheduler)",
      [&registry](const PolicySpec& spec) {
        return std::make_unique<EasyBackfilling>(selector_for(spec),
                                                 registry.make_assigner(spec));
      });
  registry.add_policy("fcfs", "first-come first-served, no backfilling",
                      [&registry](const PolicySpec& spec) {
                        return std::make_unique<Fcfs>(
                            selector_for(spec), registry.make_assigner(spec));
                      });
  registry.add_policy(
      "conservative",
      "conservative backfilling: every queued job holds a reservation",
      [&registry](const PolicySpec& spec) {
        return std::make_unique<ConservativeBackfilling>(
            selector_for(spec), registry.make_assigner(spec));
      });
  registry.add_policy(
      "easy+raise",
      "EASY plus dynamic frequency raise when the queue passes "
      "policy.raise.queue_limit",
      [&registry](const PolicySpec& spec) {
        BSLD_REQUIRE(spec.raise.has_value(),
                     "PolicyRegistry: policy `easy+raise` needs a raise "
                     "config");
        return std::make_unique<DynamicRaiseEasy>(
            selector_for(spec), registry.make_assigner(spec), *spec.raise);
      });
}

}  // namespace

std::string PolicySpec::resolved_name() const {
  if (raise && name == "easy") return "easy+raise";
  return name;
}

std::string PolicySpec::resolved_assigner() const {
  if (!assigner.empty()) return assigner;
  return dvfs ? "bsld" : "ftop";
}

PolicyRegistry& PolicyRegistry::global() {
  static PolicyRegistry* registry = [] {
    // bsld-lint: allow(new-delete): leaked singleton, outlives static dtors
    auto* r = new PolicyRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

void bind_config(util::ConfigCodec& codec, PolicySpec& spec) {
  codec.field("policy.name", spec.name);
  codec.field("policy.selector", spec.selector);
  codec.non_default("policy.assigner", spec.assigner, std::string());
  bool dvfs_on = spec.dvfs.has_value();
  codec.field("policy.dvfs", dvfs_on);
  if (dvfs_on) {
    // A DVFS group read without `policy.wq_threshold` has no WQ limit.
    DvfsConfig dvfs = spec.dvfs.value_or(DvfsConfig{.wq_threshold = {}});
    codec.field("policy.bsld_threshold", dvfs.bsld_threshold);
    std::string wq =
        dvfs.wq_threshold ? std::to_string(*dvfs.wq_threshold) : "NO";
    codec.field("policy.wq_threshold", wq);
    if (wq == "NO") {
      dvfs.wq_threshold.reset();
    } else if (codec.reading()) {
      dvfs.wq_threshold = util::parse_int(wq);
      codec.check(dvfs.wq_threshold >= 0, "policy.wq_threshold",
                  "expects a non-negative integer or NO, got `" + wq + "`");
    }
    codec.field("policy.bsld_floor", dvfs.bsld_floor);
    codec.field("policy.wq_counts_self", dvfs.wq_counts_self);
    codec.field("policy.backfill_requires_bsld_at_top",
                dvfs.backfill_requires_bsld_at_top);
    spec.dvfs = dvfs;
  } else {
    spec.dvfs.reset();
  }
  std::optional<std::int64_t> queue_limit;
  if (spec.raise) queue_limit = spec.raise->queue_limit;
  codec.optional("policy.raise.queue_limit", queue_limit);
  if (queue_limit) {
    codec.check(*queue_limit >= 0, "policy.raise.queue_limit", "must be >= 0");
    DynamicRaiseConfig raise = spec.raise.value_or(DynamicRaiseConfig{});
    raise.queue_limit = *queue_limit;
    codec.field("policy.raise.one_step", raise.one_step);
    spec.raise = raise;
  }
  if (codec.reading()) {
    PolicyRegistry::global().require_policy(spec.resolved_name());
    PolicyRegistry::global().require_assigner(spec.resolved_assigner());
  }
}

std::string policy_label(const PolicySpec& spec) {
  std::ostringstream os;
  const std::string name = spec.resolved_name();
  if (name == "easy") os << "EASY";
  else if (name == "fcfs") os << "FCFS";
  else if (name == "conservative") os << "CONS";
  else if (name == "easy+raise") {
    os << "EASY+raise";
    if (spec.raise) os << '>' << spec.raise->queue_limit;
  }
  else os << name;
  if (spec.dvfs) {
    os << " BSLD<=" << spec.dvfs->bsld_threshold << ",WQ<=";
    if (spec.dvfs->wq_threshold) os << *spec.dvfs->wq_threshold;
    else os << "NO";
  } else {
    os << " noDVFS";
  }
  return os.str();
}

}  // namespace bsld::core
