// Fixture: src/workload defines load_source() on top of the streams, so
// the eager-ingest rule does not apply here.
#include "workload/source.hpp"

namespace bsld::wl {

Workload reload(const WorkloadSource& source) { return load_source(source); }

}  // namespace bsld::wl
