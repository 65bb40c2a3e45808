/// \file archives.hpp
/// \brief Generator profiles standing in for the paper's five Parallel
/// Workload Archive traces (Table 1).
///
/// | Archive            | CPUs | Paper's baseline avg BSLD | Character |
/// |--------------------|------|---------------------------|-----------|
/// | CTC (SP2)          |  430 |  4.66 | many long jobs, many sequential |
/// | SDSC (SP2)         |  128 | 24.91 | saturated; CTC-like runtimes    |
/// | SDSC-Blue          | 1152 |  5.15 | no sequential jobs; >= 8 CPUs   |
/// | LLNL-Thunder       | 4008 |  1.00 | masses of short/small jobs      |
/// | LLNL-Atlas         | 9216 |  1.08 | large parallel jobs             |
///
/// Each profile is calibrated so a 5000-job trace scheduled with plain EASY
/// (no DVFS) lands near the paper's baseline avg BSLD; `bench_paper
/// table1` reports paper-vs-measured. The seeds below are the library
/// defaults so all experiments agree on the exact trace bytes.
#pragma once

#include <string>
#include <vector>

#include "workload/synthetic.hpp"

namespace bsld::wl {

/// Stable identifiers for the five modelled archives.
enum class Archive {
  kCTC,
  kSDSC,
  kSDSCBlue,
  kLLNLThunder,
  kLLNLAtlas,
};

/// All archives, in the paper's presentation order.
const std::vector<Archive>& all_archives();

/// Archive display name as used in the paper ("CTC", "SDSC", "SDSCBlue",
/// "LLNLThunder", "LLNLAtlas").
std::string archive_name(Archive archive);

/// Parses a display name back to the enum; throws bsld::Error on unknown.
Archive archive_from_name(const std::string& name);

/// Paper-reported baseline (no-DVFS) average BSLD, for comparison output.
double paper_avg_bsld(Archive archive);

/// Paper-reported machine size.
std::int32_t paper_cpus(Archive archive);

/// The calibrated generator profile for an archive. `num_jobs` defaults to
/// the paper's 5000-job slices.
WorkloadSpec archive_spec(Archive archive, std::int64_t num_jobs = 5000);

/// Default deterministic seed used by benches/tests for this archive.
std::uint64_t archive_seed(Archive archive);

/// Generates the canonical trace for the archive: calibrated spec + default
/// seed. All paper-reproduction benches consume exactly this trace.
Workload make_archive_workload(Archive archive, std::int64_t num_jobs = 5000);

}  // namespace bsld::wl
