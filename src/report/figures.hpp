/// \file figures.hpp
/// \brief The paper's exact experiment grids: the §5.1 and §5.2 specs
/// that bench_paper renders as Tables 1-3 and Figs. 3-9.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "report/experiment.hpp"
#include "report/sweep.hpp"

namespace bsld::report {

/// BSLDthreshold values evaluated by the paper (§5.1).
const std::vector<double>& paper_bsld_thresholds();

/// WQthreshold values: 0, 4, 16, and NO LIMIT (nullopt).
const std::vector<std::optional<std::int64_t>>& paper_wq_thresholds();

/// System-size increases of §5.2 as scale factors (1.0 ... 2.25).
const std::vector<double>& paper_size_scales();

/// "0", "4", "16", "NO".
std::string wq_label(const std::optional<std::int64_t>& wq);

/// Grid of §5.1 (Figs. 3-5): every archive x BSLDthr x WQthr, plus one
/// no-DVFS baseline per archive (appended at the end, one per archive).
struct OriginalSizeGrid {
  std::vector<RunSpec> dvfs_specs;      ///< archive-major, then BSLD, then WQ.
  std::vector<RunSpec> baseline_specs;  ///< one per archive, same order.
};
OriginalSizeGrid original_size_grid(std::int32_t num_jobs = 5000);

/// Grid of §5.2 (Figs. 7-9): every archive x size scale for one WQ setting
/// (BSLDthreshold = 2), plus the original-size no-DVFS baselines.
struct EnlargedGrid {
  std::vector<RunSpec> dvfs_specs;      ///< archive-major, then size.
  std::vector<RunSpec> baseline_specs;  ///< one per archive (scale 1.0).
};
EnlargedGrid enlarged_grid(const std::optional<std::int64_t>& wq_threshold,
                           std::int32_t num_jobs = 5000);

/// The whole §5.1 + §5.2 sequence, 145 slots: original_size_grid's
/// dvfs_specs then baseline_specs, then the same two parts of
/// enlarged_grid(0), then of enlarged_grid(NO).
std::vector<RunSpec> paper_grid(std::int32_t num_jobs = 5000);

}  // namespace bsld::report
