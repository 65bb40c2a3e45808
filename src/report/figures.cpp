#include "report/figures.hpp"

namespace bsld::report {

const std::vector<double>& paper_bsld_thresholds() {
  static const std::vector<double> values = {1.5, 2.0, 3.0};
  return values;
}

const std::vector<std::optional<std::int64_t>>& paper_wq_thresholds() {
  static const std::vector<std::optional<std::int64_t>> values = {
      std::int64_t{0}, std::int64_t{4}, std::int64_t{16}, std::nullopt};
  return values;
}

const std::vector<double>& paper_size_scales() {
  // "ranging from the original size to 125% increase in system size"
  static const std::vector<double> values = {1.0, 1.1, 1.2, 1.5,
                                             1.75, 2.0, 2.25};
  return values;
}

std::string wq_label(const std::optional<std::int64_t>& wq) {
  return wq ? std::to_string(*wq) : "NO";
}

OriginalSizeGrid original_size_grid(std::int32_t num_jobs) {
  OriginalSizeGrid grid;
  for (const wl::Archive archive : wl::all_archives()) {
    for (const double bsld : paper_bsld_thresholds()) {
      for (const auto& wq : paper_wq_thresholds()) {
        RunSpec spec;
        spec.workload = wl::WorkloadSource::from_archive(archive, num_jobs);
        core::DvfsConfig dvfs;
        dvfs.bsld_threshold = bsld;
        dvfs.wq_threshold = wq;
        spec.policy.dvfs = dvfs;
        grid.dvfs_specs.push_back(spec);
      }
    }
    RunSpec baseline;
    baseline.workload = wl::WorkloadSource::from_archive(archive, num_jobs);
    grid.baseline_specs.push_back(baseline);
  }
  return grid;
}

EnlargedGrid enlarged_grid(const std::optional<std::int64_t>& wq_threshold,
                           std::int32_t num_jobs) {
  EnlargedGrid grid;
  for (const wl::Archive archive : wl::all_archives()) {
    for (const double scale : paper_size_scales()) {
      RunSpec spec;
      spec.workload = wl::WorkloadSource::from_archive(archive, num_jobs);
      spec.size_scale = scale;
      core::DvfsConfig dvfs;
      dvfs.bsld_threshold = 2.0;  // paper: "the medium used value 2"
      dvfs.wq_threshold = wq_threshold;
      spec.policy.dvfs = dvfs;
      grid.dvfs_specs.push_back(spec);
    }
    RunSpec baseline;
    baseline.workload = wl::WorkloadSource::from_archive(archive, num_jobs);
    grid.baseline_specs.push_back(baseline);
  }
  return grid;
}

std::vector<RunSpec> paper_grid(std::int32_t num_jobs) {
  const OriginalSizeGrid original = original_size_grid(num_jobs);
  const EnlargedGrid wq0 = enlarged_grid(std::int64_t{0}, num_jobs);
  const EnlargedGrid wq_no = enlarged_grid(std::nullopt, num_jobs);
  std::vector<RunSpec> grid;
  for (const std::vector<RunSpec>* part :
       {&original.dvfs_specs, &original.baseline_specs, &wq0.dvfs_specs,
        &wq0.baseline_specs, &wq_no.dvfs_specs, &wq_no.baseline_specs}) {
    grid.insert(grid.end(), part->begin(), part->end());
  }
  return grid;
}

}  // namespace bsld::report
