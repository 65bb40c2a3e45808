/// \file spec_test.cpp
/// \brief pm::PmSpec serialization, validation and registry resolution.

#include "pm/spec.hpp"

#include <gtest/gtest.h>

#include "pm/registry.hpp"
#include "power/power_model.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace bsld::pm {
namespace {

TEST(PmSpec, DefaultIsDisabledAndSerializesToNothing) {
  const PmSpec spec;
  EXPECT_FALSE(spec.enabled());
  const util::Config config = util::write_config(spec);
  // The no-op default must not change any serialized spec: every
  // pre-existing cache key depends on this.
  EXPECT_EQ(config.to_string(), "");
}

TEST(PmSpec, AbsentKeysParseToDefault) {
  const PmSpec spec = util::read_config<PmSpec>(util::Config::parse(""));
  EXPECT_EQ(spec, PmSpec{});
}

TEST(PmSpec, RoundTripsEveryFamily) {
  std::vector<PmSpec> specs;
  specs.push_back(PmSpec{});
  PmSpec uniform;
  uniform.name = "cap-uniform";
  uniform.cap_watts = 4000.0;
  specs.push_back(uniform);
  PmSpec proportional;
  proportional.name = "cap-proportional";
  proportional.cap_watts = 123.5;
  specs.push_back(proportional);
  PmSpec sleep;
  sleep.name = "sleep";
  specs.push_back(sleep);
  PmSpec setpoint;
  setpoint.name = "setpoint";
  setpoint.setpoint_watts = 350000.0;
  setpoint.cap_watts = 400000.0;
  setpoint.interval_s = 60;
  setpoint.gain = 0.25;
  specs.push_back(setpoint);

  for (const PmSpec& spec : specs) {
    const util::Config config = util::write_config(spec);
    const PmSpec parsed = util::read_config<PmSpec>(config);
    EXPECT_EQ(parsed, spec) << config.to_string();
    // Re-serialization is byte-identical (the spec's cache-key property).
    const util::Config again = util::write_config(parsed);
    EXPECT_EQ(again.to_string(), config.to_string());
  }
}

TEST(PmSpec, ValidateRejectsUnknownName) {
  PmSpec spec;
  spec.name = "no-such-manager";
  EXPECT_THROW(validate(spec), Error);
}

TEST(PmSpec, CapFamiliesRequireAPositiveCap) {
  PmSpec spec;
  spec.name = "cap-uniform";
  EXPECT_THROW(validate(spec), Error);  // Missing cap_watts.
  spec.cap_watts = 0.0;
  EXPECT_THROW(validate(spec), Error);  // Non-positive.
  spec.cap_watts = 100.0;
  EXPECT_NO_THROW(validate(spec));
  spec.name = "cap-proportional";
  EXPECT_NO_THROW(validate(spec));
  // Setpoint-only tunables are rejected on the cap families.
  spec.gain = 0.5;
  EXPECT_THROW(validate(spec), Error);
}

TEST(PmSpec, SetpointRequiresSetpointAndChecksTunables) {
  PmSpec spec;
  spec.name = "setpoint";
  EXPECT_THROW(validate(spec), Error);  // Missing setpoint_watts.
  spec.setpoint_watts = 1000.0;
  EXPECT_NO_THROW(validate(spec));
  spec.interval_s = 0;
  EXPECT_THROW(validate(spec), Error);  // Interval below one second.
  spec.interval_s = 1;
  spec.gain = -1.0;
  EXPECT_THROW(validate(spec), Error);
  spec.gain = 0.5;
  spec.cap_watts = -5.0;
  EXPECT_THROW(validate(spec), Error);  // Initial cap must be positive.
  spec.cap_watts = 2000.0;
  EXPECT_NO_THROW(validate(spec));
}

TEST(PmSpec, ParameterlessFamiliesRejectEveryTunable) {
  for (const char* name : {"none", "sleep"}) {
    PmSpec spec;
    spec.name = name;
    EXPECT_NO_THROW(validate(spec));
    PmSpec with_cap = spec;
    with_cap.cap_watts = 100.0;
    EXPECT_THROW(validate(with_cap), Error);
    PmSpec with_gain = spec;
    with_gain.gain = 0.5;
    EXPECT_THROW(validate(with_gain), Error);
  }
}

TEST(PmSpec, LabelsNameTheManagerAndItsBudget) {
  EXPECT_EQ(pm_label(PmSpec{}), "");
  PmSpec uniform;
  uniform.name = "cap-uniform";
  uniform.cap_watts = 4000.0;
  EXPECT_EQ(pm_label(uniform), "cap-uniform@4000W");
  PmSpec sleep;
  sleep.name = "sleep";
  EXPECT_EQ(pm_label(sleep), "sleep");
  PmSpec setpoint;
  setpoint.name = "setpoint";
  setpoint.setpoint_watts = 350000.0;
  EXPECT_EQ(pm_label(setpoint), "setpoint@350000W");
}

TEST(PmRegistry, KnowsTheBuiltIns) {
  const PowerManagerRegistry& registry = PowerManagerRegistry::global();
  for (const char* name :
       {"none", "cap-uniform", "cap-proportional", "sleep", "setpoint"}) {
    EXPECT_TRUE(registry.has(name)) << name;
  }
  EXPECT_FALSE(registry.has("no-such-manager"));
  EXPECT_THROW(registry.require("no-such-manager"), Error);
}

TEST(PmRegistry, EntriesAreSortedAndDescribed) {
  const auto entries = PowerManagerRegistry::global().entries();
  ASSERT_GE(entries.size(), 5U);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].first, entries[i].first);
  }
  for (const auto& [name, description] : entries) {
    EXPECT_FALSE(description.empty()) << name;
  }
}

TEST(PmRegistry, MakeBuildsTheNamedFamily) {
  const testing::Models models;
  const PowerManagerRegistry& registry = PowerManagerRegistry::global();

  PmSpec uniform;
  uniform.name = "cap-uniform";
  uniform.cap_watts = 4000.0;
  EXPECT_STREQ(registry.make(uniform, models.power)->name(), "cap-uniform");

  PmSpec sleep;
  sleep.name = "sleep";
  EXPECT_STREQ(registry.make(sleep, models.power)->name(), "sleep");

  PmSpec setpoint;
  setpoint.name = "setpoint";
  setpoint.setpoint_watts = 1000.0;
  EXPECT_STREQ(registry.make(setpoint, models.power)->name(), "setpoint");

  EXPECT_STREQ(registry.make(PmSpec{}, models.power)->name(), "none");

  // make() validates: a hand-built spec missing its cap fails the same
  // family rules a parsed one would.
  PmSpec invalid;
  invalid.name = "cap-proportional";
  EXPECT_THROW((void)registry.make(invalid, models.power), Error);
}

TEST(PmRegistry, RejectsDuplicateNames) {
  PowerManagerRegistry& registry = PowerManagerRegistry::global();
  EXPECT_THROW(
      registry.add("none", "duplicate",
                   [](const PmSpec&, const power::PowerModel&)
                       -> std::unique_ptr<PowerManager> { return nullptr; }),
      Error);
}

TEST(PmRegistry, RejectsEmptyNameAndNullFactory) {
  PowerManagerRegistry registry;
  EXPECT_THROW(registry.add("", "unnamed",
                            [](const PmSpec&, const power::PowerModel&) {
                              return std::unique_ptr<PowerManager>();
                            }),
               Error);
  EXPECT_THROW(
      registry.add("empty-fn", "no factory", PowerManagerRegistry::Factory{}),
      Error);
  EXPECT_TRUE(registry.names().empty());
}

TEST(PmRegistry, NullManagerIsAnErrorNotPmNone) {
  // make() validates against the global registry, so the null factory has
  // to live there.
  PowerManagerRegistry& registry = PowerManagerRegistry::global();
  if (!registry.has("test-null")) {
    registry.add("test-null", "factory that returns null",
                 [](const PmSpec&, const power::PowerModel&) {
                   return std::unique_ptr<PowerManager>();
                 });
  }
  const testing::Models models;
  PmSpec spec;
  spec.name = "test-null";
  try {
    (void)registry.make(spec, models.power);
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what())
                  .find("PowerManagerRegistry: power manager `test-null` "
                        "factory returned null"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace bsld::pm
