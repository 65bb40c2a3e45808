/// \file grid.hpp
/// \brief Declarative sweep grids: one config file that expands into a
/// cross-product of RunSpecs.
///
/// A grid config is an ordinary RunSpec config (every key RunSpec::parse
/// accepts, all optional) plus multi-valued `sweep.*` axes:
///
///   sweep.workloads       = CTC, SDSC, SDSCBlue   # archive names/SWF paths
///   sweep.bsld_thresholds = 1.5, 2, 3             # enables DVFS per value
///   sweep.wq_thresholds   = 0, 4, 16, NO          # NO = no limit
///   sweep.scales          = 1, 1.2, 1.5           # machine size multipliers
///   sweep.pm              = none, cap-uniform     # power managers by name
///   sweep.pm_cap_watts    = 400000, 600000        # cap (or setpoint) watts
///
/// expand_grid() returns the full cross-product in a fixed, documented
/// order — workloads outermost, then BSLD thresholds, then WQ thresholds,
/// then scales, then pm names, then pm watts innermost — so a grid file
/// denotes one exact spec sequence everywhere: the serial run, every shard
/// of a sharded run, and any future re-run agree on grid indices. A point
/// is the base config plus the keys its axis items set, read like a spec
/// file: axes left out keep the base's value, a BSLD axis over a no-DVFS
/// base has no WQ limit unless a key sets one, and an unread key
/// (`sweep.bsld_threshold`) fails.
/// This is the seam bsldsim --sweep consumes; paper figures keep their
/// hand-built grids in figures.hpp.
#pragma once

#include <vector>

#include "report/experiment.hpp"
#include "util/config.hpp"

namespace bsld::report {

/// Expands `config` into the cross-product of its sweep axes over its base
/// spec. A config with no `sweep.*` keys yields exactly the base spec.
/// Throws bsld::Error as RunSpec::parse does on the base or a grid point;
/// an error about a key an axis set names the axis.
std::vector<RunSpec> expand_grid(const util::Config& config);

}  // namespace bsld::report
