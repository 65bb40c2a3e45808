// Fixture: the eager-ingest rule (every src/ module but src/workload pulls
// jobs through wl::JobStream; materializing a trace there is O(jobs) memory).
#include "workload/source.hpp"

namespace bsld::sim {

void ingest_everything(const wl::WorkloadSource& source) {
  auto workload = wl::load_source(source);  // lint-expect: eager-ingest
  (void)workload;
}

void ingest_unqualified(const wl::WorkloadSource& source) {
  using wl::load_source;
  auto workload = load_source(source);  // lint-expect: eager-ingest
  (void)workload;
}

// Identifiers merely containing the name are fine:
void reload_sources();
int preload_source_count();

void suppressed_ingest(const wl::WorkloadSource& source) {
  // bsld-lint: allow(eager-ingest): fixture demonstrating a valid suppression
  auto workload = wl::load_source(source);
  (void)workload;
}

}  // namespace bsld::sim
