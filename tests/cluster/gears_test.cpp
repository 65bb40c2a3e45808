#include "cluster/gears.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bsld::cluster {
namespace {

TEST(GearsTest, PaperGearSetMatchesTable2) {
  const GearSet gears = paper_gear_set();
  ASSERT_EQ(gears.size(), 6u);
  EXPECT_DOUBLE_EQ(gears.lowest().frequency_ghz, 0.8);
  EXPECT_DOUBLE_EQ(gears.lowest().voltage_v, 1.0);
  EXPECT_DOUBLE_EQ(gears.top().frequency_ghz, 2.3);
  EXPECT_DOUBLE_EQ(gears.top().voltage_v, 1.5);
  EXPECT_DOUBLE_EQ(gears[2].frequency_ghz, 1.4);
  EXPECT_DOUBLE_EQ(gears[2].voltage_v, 1.2);
  EXPECT_EQ(gears.top_index(), 5);
}

TEST(GearsTest, FrequencyRatio) {
  const GearSet gears = paper_gear_set();
  EXPECT_DOUBLE_EQ(gears.frequency_ratio(gears.top_index()), 1.0);
  EXPECT_NEAR(gears.frequency_ratio(0), 2.3 / 0.8, 1e-12);
}

TEST(GearsTest, ValidationRejectsBadSets) {
  EXPECT_THROW(GearSet({}), Error);
  EXPECT_THROW(GearSet({{1.0, 1.0}, {0.9, 1.1}}), Error);   // freq not increasing
  EXPECT_THROW(GearSet({{1.0, 1.2}, {1.5, 1.0}}), Error);   // voltage decreasing
  EXPECT_THROW(GearSet({{0.0, 1.0}}), Error);               // non-positive
  EXPECT_THROW(GearSet({{1.0, -1.0}}), Error);
  EXPECT_THROW(GearSet({{1.0, 1.0}, {1.0, 1.1}}), Error);   // equal freq
}

TEST(GearsTest, IndexOutOfRangeRejected) {
  const GearSet gears = paper_gear_set();
  EXPECT_THROW((void)gears[-1], Error);
  EXPECT_THROW((void)gears[6], Error);
}

TEST(GearsTest, SingleGearSetIsValid) {
  const GearSet gears({{2.0, 1.3}});
  EXPECT_EQ(gears.top_index(), 0);
  EXPECT_DOUBLE_EQ(gears.frequency_ratio(0), 1.0);
}

TEST(GearsTest, ToStringListsAllGears) {
  const std::string rendered = paper_gear_set().to_string();
  EXPECT_NE(rendered.find("0.8GHz@1V"), std::string::npos);
  EXPECT_NE(rendered.find("2.3GHz@1.5V"), std::string::npos);
}

TEST(GearsTest, ConfigFallsBackToPaperSet) {
  const util::Config empty;
  EXPECT_EQ(util::read_config(empty, paper_gear_set()), paper_gear_set());
}

TEST(GearsTest, ConfigOverrides) {
  const util::Config config = util::Config::parse(
      "gears.frequencies_ghz = 1.0, 2.0\n"
      "gears.voltages_v = 1.1, 1.3\n");
  const GearSet gears = util::read_config(config, paper_gear_set());
  ASSERT_EQ(gears.size(), 2u);
  EXPECT_DOUBLE_EQ(gears.top().frequency_ghz, 2.0);
}

TEST(GearsTest, ConfigLengthMismatchRejected) {
  const util::Config config = util::Config::parse(
      "gears.frequencies_ghz = 1.0, 2.0\n"
      "gears.voltages_v = 1.1\n");
  EXPECT_THROW((void)util::read_config(config, paper_gear_set()), Error);
}

}  // namespace
}  // namespace bsld::cluster
