// Fixture: the eager-ingest rule outside src/sim — report's run entry
// points stream the workload too, so materializing a trace here is flagged.
#include "workload/source.hpp"

namespace bsld::report {

void run_materialized(const wl::WorkloadSource& source) {
  const wl::Workload workload = wl::load_source(source);  // lint-expect: eager-ingest
  (void)workload;
}

}  // namespace bsld::report
