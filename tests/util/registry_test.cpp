#include "util/registry.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "util/error.hpp"

namespace bsld::util {
namespace {

struct Widget {
  int size = 0;
};

using WidgetRegistry = Registry<Widget, int>;

WidgetRegistry::Factory widget_factory(int scale) {
  return [scale](int size) {
    return std::make_unique<Widget>(Widget{scale * size});
  };
}

std::string error_of(const auto& call) {
  try {
    call();
  } catch (const Error& error) {
    return error.what();
  }
  return "(no error)";
}

TEST(RegistryTest, NamesAndEntriesAreSortedWithDescriptions) {
  WidgetRegistry registry("WidgetRegistry", "widget");
  registry.add("large", "ten times", widget_factory(10));
  registry.add("big", "", widget_factory(2));
  registry.add("small", "as asked", widget_factory(1));

  EXPECT_EQ(registry.names(),
            (std::vector<std::string>{"big", "large", "small"}));
  const std::vector<std::pair<std::string, std::string>> expected{
      {"big", ""}, {"large", "ten times"}, {"small", "as asked"}};
  EXPECT_EQ(registry.entries(), expected);
  EXPECT_TRUE(registry.has("large"));
  EXPECT_FALSE(registry.has("huge"));
  EXPECT_NO_THROW(registry.require("small"));
  EXPECT_EQ(registry.make("large", 3)->size, 30);
}

TEST(RegistryTest, AddRejectsDuplicateEmptyNameAndNullFactory) {
  WidgetRegistry registry("WidgetRegistry", "widget");
  registry.add("big", "", widget_factory(2));

  EXPECT_NE(error_of([&] { registry.add("big", "", widget_factory(3)); })
                .find("WidgetRegistry: widget `big` already registered"),
            std::string::npos);
  EXPECT_NE(error_of([&] { registry.add("", "", widget_factory(3)); })
                .find("WidgetRegistry: empty widget name"),
            std::string::npos);
  EXPECT_NE(error_of([&] { registry.add("none", "", nullptr); })
                .find("WidgetRegistry: null factory for widget `none`"),
            std::string::npos);
  EXPECT_EQ(registry.names(), std::vector<std::string>{"big"});
  EXPECT_EQ(registry.make("big", 4)->size, 8);  // the original survives
}

TEST(RegistryTest, UnknownNameListsTheRegisteredNames) {
  WidgetRegistry registry("WidgetRegistry", "widget");
  registry.add("small", "", widget_factory(1));
  registry.add("big", "", widget_factory(2));

  const std::string expected =
      "WidgetRegistry: unknown widget `huge` (registered: big, small)";
  EXPECT_EQ(error_of([&] { (void)registry.make("huge", 1); }), expected);
  EXPECT_EQ(error_of([&] { registry.require("huge"); }), expected);

  const WidgetRegistry empty("WidgetRegistry", "widget");
  EXPECT_EQ(error_of([&] { empty.require("x"); }),
            "WidgetRegistry: unknown widget `x` (registered: )");
}

TEST(RegistryTest, NullProductIsRejected) {
  WidgetRegistry registry("WidgetRegistry", "widget");
  registry.add("ghost", "", [](int) { return std::unique_ptr<Widget>(); });
  EXPECT_TRUE(registry.has("ghost"));
  EXPECT_NE(error_of([&] { (void)registry.make("ghost", 1); })
                .find("WidgetRegistry: widget `ghost` factory returned null"),
            std::string::npos);
}

TEST(RegistryTest, FactoryMayBuildFromTheSameTable) {
  // Factories run outside the lock: a decorator registered under a new
  // name can build the product it wraps from the same registry.
  WidgetRegistry registry("WidgetRegistry", "widget");
  registry.add("small", "", widget_factory(1));
  registry.add("doubled", "", [&registry](int size) {
    auto inner = registry.make("small", size);
    inner->size *= 2;
    return inner;
  });
  EXPECT_EQ(registry.make("doubled", 5)->size, 10);
}

}  // namespace
}  // namespace bsld::util
