#include "report/grid.hpp"

#include <array>
#include <string>

#include "util/error.hpp"
#include "util/parse.hpp"
#include "workload/source.hpp"

namespace bsld::report {

namespace {

/// A sweep axis: its name, and the keys one of its items sets on a grid
/// point, each tagged with the axis so errors about the key name it.
struct Axis {
  const char* name;
  void (*set)(util::Config& point, const std::string& item, const char* axis);
};

/// The axes in grid order, outermost first.
constexpr std::array<Axis, 6> kAxes = {{
    // The whole workload group, keeping the base trace length and seed.
    {"sweep.workloads",
     [](util::Config& point, const std::string& item, const char* axis) {
       const auto base = util::read_config<wl::WorkloadSource>(point);
       point.erase("workload");
       point.merge(util::write_config(
                       wl::resolve_source(item, base.jobs, base.seed)),
                   axis);
     }},
    // A threshold implies the DVFS algorithm; the other DVFS keys come
    // from the base, as in a spec file.
    {"sweep.bsld_thresholds",
     [](util::Config& point, const std::string& item, const char* axis) {
       point.set("policy.dvfs", "true", axis);
       point.set("policy.bsld_threshold", item, axis);
     }},
    {"sweep.wq_thresholds",
     [](util::Config& point, const std::string& item, const char* axis) {
       point.set("policy.dvfs", "true", axis);
       point.set("policy.wq_threshold", item, axis);
     }},
    {"sweep.scales",
     [](util::Config& point, const std::string& item, const char* axis) {
       point.set("scale", item, axis);
     }},
    {"sweep.pm",
     [](util::Config& point, const std::string& item, const char* axis) {
       point.set("pm", item, axis);
     }},
    // The watts go to the setpoint for "setpoint", to the hard cap for the
    // other families, and nowhere for none/sleep (the specs then dedup).
    {"sweep.pm_cap_watts",
     [](util::Config& point, const std::string& item, const char* axis) {
       BSLD_REQUIRE(util::parse_double(item) > 0.0,
                    "expand_grid: sweep.pm_cap_watts items must be positive");
       std::string family = "none";
       util::ConfigCodec::reader(point).field("pm", family);
       if (family == "setpoint") {
         point.set("pm.setpoint_watts", item, axis);
       } else if (family != "none" && family != "sleep") {
         point.set("pm.cap_watts", item, axis);
       }
     }},
}};

}  // namespace

std::vector<RunSpec> expand_grid(const util::Config& config) {
  std::array<std::vector<std::string>, kAxes.size()> items;
  util::Config base = config;
  util::ConfigCodec axes = util::ConfigCodec::reader(config);
  for (std::size_t a = 0; a < kAxes.size(); ++a) {
    axes.field(kAxes[a].name, items[a]);
    base.erase(kAxes[a].name);
  }
  // Every item of axis `a` crossed with the axes inside it; an absent axis
  // sets nothing.
  std::vector<RunSpec> specs;
  const auto expand = [&](const auto& self, std::size_t a,
                          const util::Config& point) -> void {
    if (a == kAxes.size()) return specs.push_back(RunSpec::parse(point));
    if (items[a].empty()) return self(self, a + 1, point);
    for (const std::string& item : items[a]) {
      util::Config next = point;
      kAxes[a].set(next, item, kAxes[a].name);
      self(self, a + 1, next);
    }
  };
  expand(expand, 0, base);
  return specs;
}

}  // namespace bsld::report
