#include "core/metrics.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bsld::core {

namespace {

double bsld_impl(Time wait, double effective_run, Time run_for_floor,
                 Time floor) {
  BSLD_REQUIRE(wait >= 0, "BSLD: negative wait time");
  BSLD_REQUIRE(effective_run >= 0.0, "BSLD: negative runtime");
  BSLD_REQUIRE(floor > 0, "BSLD: floor must be positive");
  const double denominator =
      static_cast<double>(std::max<Time>(floor, run_for_floor));
  const double slowdown =
      (static_cast<double>(wait) + effective_run) / denominator;
  return std::max(slowdown, 1.0);
}

}  // namespace

double predicted_bsld(Time wait, Time requested, double coefficient,
                      Time floor) {
  BSLD_REQUIRE(coefficient >= 1.0, "BSLD: dilation coefficient below 1");
  return bsld_impl(wait, static_cast<double>(requested) * coefficient,
                   requested, floor);
}

double penalized_bsld(Time wait, Time penalized_run_time,
                      Time run_time_at_top, Time floor) {
  return bsld_impl(wait, static_cast<double>(penalized_run_time),
                   run_time_at_top, floor);
}

}  // namespace bsld::core
