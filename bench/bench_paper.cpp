/// \file bench_paper.cpp
/// \brief Regenerates the paper's results from one deduplicated sweep.
///
/// Usage: bench_paper [table1 table2 table3 fig3 ... fig9 ...]
///
/// Each kArtifacts entry names the specs an artifact needs and its
/// renderer. The selected artifacts' specs go through one
/// report::SweepRunner::run, whose key dedup simulates each distinct spec
/// once (Table 1, Table 3 and Figs. 3-5 share the §5.1 runs), and each
/// renderer gets its slice of the results. No arguments = every artifact,
/// in the order above; an unknown name exits 2. stderr gets one line: the
/// slot count, the distinct spec count and the wall time.
#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/gears.hpp"
#include "power/power_model.hpp"
#include "power/time_model.hpp"
#include "report/figures.hpp"
#include "sim/instruments.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/workload_stats.hpp"

using namespace bsld;

namespace {

/// An artifact's slice of the sweep, in the order of its specs.
using Results = std::span<const report::RunResult>;

/// One table cell from a run and its archive's no-DVFS baseline.
using Cell = std::function<std::string(const report::RunResult& run,
                                       const report::RunResult& baseline)>;

/// A §5.1 or §5.2 grid's cells, then its baselines (one per archive).
template <typename Grid>
std::vector<report::RunSpec> cells_then_baselines(const Grid& grid) {
  std::vector<report::RunSpec> specs = grid.dvfs_specs;
  specs.insert(specs.end(), grid.baseline_specs.begin(),
               grid.baseline_specs.end());
  return specs;
}

/// The baseline of the archive at `archive_index` in the results of
/// cells_then_baselines().
const report::RunResult& baseline_of(Results results,
                                     std::size_t archive_index) {
  return results[results.size() - wl::all_archives().size() + archive_index];
}

/// Renders the §5.1 grid (Figs. 3-5) with one value per (workload,
/// BSLDthreshold, WQthreshold) cell via `cell`. Layout mirrors the paper's
/// bar groups: one row per (workload, BSLDthreshold), one column per WQ
/// threshold.
void print_original_size_figure(Results results, const std::string& title,
                                const std::string& value_name,
                                const Cell& cell) {
  std::cout << title << "\n\n";
  util::Table table({"Workload", "BSLDthr", value_name + " WQ=0",
                     value_name + " WQ=4", value_name + " WQ=16",
                     value_name + " WQ=NO"});
  for (std::size_t c = 1; c < 6; ++c) table.set_align(c, util::Align::kRight);

  std::size_t index = 0;
  for (std::size_t a = 0; a < wl::all_archives().size(); ++a) {
    const wl::Archive archive = wl::all_archives()[a];
    const report::RunResult& baseline = baseline_of(results, a);
    for (const double bsld_threshold : report::paper_bsld_thresholds()) {
      std::vector<std::string> row = {wl::archive_name(archive),
                                      util::fmt_double(bsld_threshold, 1)};
      for (std::size_t w = 0; w < report::paper_wq_thresholds().size(); ++w) {
        row.push_back(cell(results[index], baseline));
        ++index;
      }
      table.add_row(std::move(row));
    }
  }
  std::cout << table;
}

/// Renders one §5.2 enlarged-system grid (Figs. 7-9) with one value per
/// (workload, size scale) cell.
void print_enlarged_figure(Results results, const std::string& title,
                           const Cell& cell) {
  std::cout << title << "\n\n";
  std::vector<std::string> headers = {"Workload"};
  for (const double scale : report::paper_size_scales()) {
    std::string label = "+";
    label += util::fmt_double((scale - 1.0) * 100.0, 0);
    label += '%';
    headers.push_back(std::move(label));
  }
  util::Table table(std::move(headers));
  for (std::size_t c = 1; c <= report::paper_size_scales().size(); ++c) {
    table.set_align(c, util::Align::kRight);
  }

  std::size_t index = 0;
  for (std::size_t a = 0; a < wl::all_archives().size(); ++a) {
    const report::RunResult& baseline = baseline_of(results, a);
    std::vector<std::string> row = {wl::archive_name(wl::all_archives()[a])};
    for (std::size_t s = 0; s < report::paper_size_scales().size(); ++s) {
      row.push_back(cell(results[index], baseline));
      ++index;
    }
    table.add_row(std::move(row));
  }
  std::cout << table;
}

/// A normalized-energy cell: `computational` (Eidle = 0) or `total`
/// (Eidle = low).
Cell energy(double report::NormalizedEnergy::*panel) {
  return [panel](const report::RunResult& run, const report::RunResult& base) {
    return util::fmt_double(
        report::normalized_energy(run.sim(), base.sim()).*panel, 3);
  };
}

std::string avg_bsld(const report::RunResult& run, const report::RunResult&) {
  return util::fmt_double(run.sim().avg_bsld, 2);
}

std::vector<report::RunSpec> original_size_specs() {
  return cells_then_baselines(report::original_size_grid());
}

std::vector<report::RunSpec> enlarged_specs(
    const std::optional<std::int64_t>& wq) {
  return cells_then_baselines(report::enlarged_grid(wq));
}

/// Table 1: workload characteristics and the average BSLD of each trace
/// under plain EASY backfilling (no DVFS).
///
/// Paper reference values (Etinski et al., IPDPS 2010, Table 1):
///   CTC-430: 4.66   SDSC-128: 24.91   SDSCBlue-1152: 5.15
///   LLNLThunder-4008: 1.00   LLNLAtlas-9216: 1.08
void render_table1(Results results) {
  std::cout << "Table 1 — Workloads (synthetic stand-ins for the Parallel "
               "Workload Archive logs)\n"
            << "Baseline scheduler: EASY backfilling, First Fit, no DVFS.\n\n";

  util::Table table({"Workload", "#CPUs", "Jobs", "Avg BSLD (paper)",
                     "Avg BSLD (measured)", "Avg wait (s)", "Utilization",
                     "Seq jobs", "<600s jobs", "Mean size"});
  for (std::size_t c = 1; c < 10; ++c) table.set_align(c, util::Align::kRight);

  for (const report::RunResult& result : results) {
    const wl::Archive archive = result.spec.workload.archive;
    const wl::Workload workload = wl::make_archive_workload(archive);
    const wl::WorkloadStats stats = wl::compute_stats(workload);
    table.add_row({wl::archive_name(archive),
                   std::to_string(wl::paper_cpus(archive)),
                   std::to_string(stats.jobs),
                   util::fmt_double(wl::paper_avg_bsld(archive)),
                   util::fmt_double(result.sim().avg_bsld),
                   util::fmt_double(result.sim().avg_wait, 0),
                   util::fmt_double(result.sim().utilization, 3),
                   util::fmt_percent(stats.sequential_fraction),
                   util::fmt_percent(stats.short_fraction),
                   util::fmt_double(stats.mean_size, 1)});
  }
  std::cout << table << '\n'
            << "Shape check: SDSC is the saturated outlier (BSLD ~ 25), "
               "Thunder/Atlas are near 1, CTC/Blue sit in between.\n";
}

/// Table 2 (the DVFS gear set), validating the power model calibration of
/// paper §4:
///   * static power = 25% of total active power at the top gear;
///   * an idle CPU (lowest gear, idle activity) consumes ~21% of the power
///     of a CPU executing a job at the top gear.
void render_table2(Results) {
  const cluster::GearSet gears = cluster::paper_gear_set();
  const power::PowerModel model(gears);
  const power::BetaTimeModel beta(gears, 0.5);

  std::cout << "Table 2 — DVFS gear set and derived per-gear power/time "
               "model values\n\n";

  util::Table table({"Gear", "Frequency (GHz)", "Voltage (V)",
                     "P_dynamic (W)", "P_static (W)", "P_active (W)",
                     "vs Ftop", "Coef(f), beta=0.5"});
  for (std::size_t c = 1; c < 8; ++c) table.set_align(c, util::Align::kRight);
  for (GearIndex g = 0; g <= gears.top_index(); ++g) {
    table.add_row({std::to_string(g),
                   util::fmt_double(gears[g].frequency_ghz, 1),
                   util::fmt_double(gears[g].voltage_v, 1),
                   util::fmt_double(model.dynamic_power(g), 1),
                   util::fmt_double(model.static_power(g), 1),
                   util::fmt_double(model.active_power(g), 1),
                   util::fmt_percent(model.active_power(g) /
                                     model.active_power(gears.top_index())),
                   util::fmt_double(beta.coefficient(g), 3)});
  }
  std::cout << table << '\n';

  const double static_share =
      model.static_power(gears.top_index()) /
      model.active_power(gears.top_index());
  std::cout << "Calibration checks (paper section 4):\n"
            << "  static share at Ftop : " << util::fmt_percent(static_share)
            << "  (paper: 25%)\n"
            << "  idle / active(Ftop)  : "
            << util::fmt_percent(model.idle_fraction_of_top())
            << "  (paper: 21%)\n"
            << "  idle power           : "
            << util::fmt_double(model.idle_power(), 1) << " W\n";
}

report::RunSpec make_spec(wl::Archive archive, double scale, bool dvfs,
                          std::optional<std::int64_t> wq) {
  report::RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(archive);
  spec.size_scale = scale;
  if (dvfs) {
    core::DvfsConfig config;
    config.bsld_threshold = 2.0;
    config.wq_threshold = wq;
    spec.policy.dvfs = config;
  }
  return spec;
}

std::vector<report::RunSpec> table3_specs() {
  std::vector<report::RunSpec> specs;
  for (const wl::Archive archive : wl::all_archives()) {
    specs.push_back(make_spec(archive, 1.0, false, std::nullopt));  // no DVFS
    specs.push_back(make_spec(archive, 1.0, true, std::int64_t{0}));
    specs.push_back(make_spec(archive, 1.0, true, std::nullopt));   // WQ NO
    specs.push_back(make_spec(archive, 1.5, true, std::int64_t{0}));
    specs.push_back(make_spec(archive, 1.5, true, std::nullopt));   // +50% WQ NO
  }
  return specs;
}

/// Table 3: average wait time (seconds) under five scheduler/system
/// configurations (BSLDthreshold = 2 wherever DVFS is on):
///   1. original size, no DVFS
///   2. original size, power-aware, WQ = 0
///   3. original size, power-aware, WQ = NO LIMIT
///   4. 50% enlarged, power-aware, WQ = 0
///   5. 50% enlarged, power-aware, WQ = NO LIMIT
///
/// Paper reference (seconds): CTC 7107/12361/16060/2980/4183; SDSC
/// 36001/35946/45845/9202/11713; SDSCBlue 4798/6587/8766/2351/3153;
/// LLNLThunder 0/1927/6876/379/1877; LLNLAtlas 69/1841/6691/708/2807.
void render_table3(Results results) {
  std::cout << "Table 3 — Average wait time (s), BSLDthreshold = 2\n\n";

  util::Table table({"Workload", "OrigSizeNoDVFS", "OrigSizeWQ0",
                     "OrigSizeWQNo", "50%IncreasedWQ0", "50%IncreasedWQNo"});
  for (std::size_t c = 1; c < 6; ++c) table.set_align(c, util::Align::kRight);
  std::size_t index = 0;
  for (const wl::Archive archive : wl::all_archives()) {
    std::vector<std::string> row = {wl::archive_name(archive)};
    for (int k = 0; k < 5; ++k) {
      row.push_back(util::fmt_double(results[index++].sim().avg_wait, 0));
    }
    table.add_row(std::move(row));
  }
  std::cout << table
            << "\nShape check (per paper): DVFS on the original size "
               "increases waits (WQ=NO more than WQ=0); the 50% larger "
               "system drives waits well below the original baseline even "
               "with DVFS on.\n";
}

/// Figure 3: CPU energy of the power-aware scheduler on the original-size
/// systems, normalized to the no-DVFS baseline of the same workload. Two
/// panels, as in the paper:
///   (a) computational energy — idle CPUs dissipate no power (Eidle = 0);
///   (b) total energy — idle CPUs draw the low-gear idle power (Eidle = low).
///
/// Paper shape: all workloads except SDSC save ~10% or more for permissive
/// settings (up to ~22% computational at BSLDthr=3/WQ=NO); SDSC (saturated,
/// avg BSLD ~ 25) cannot save energy; for a fixed BSLD threshold, relaxing
/// the WQ limit increases savings.
void render_fig3(Results results) {
  print_original_size_figure(
      results, "Figure 3a — Normalized energy, original system size (Eidle = 0)",
      "E", energy(&report::NormalizedEnergy::computational));
  std::cout << '\n';
  print_original_size_figure(
      results,
      "Figure 3b — Normalized energy, original system size (Eidle = low)", "E",
      energy(&report::NormalizedEnergy::total));
  std::cout << "\nShape check: values < 1 are savings; SDSC stays ~1.0; "
               "WQ=NO columns give the largest savings.\n";
}

/// Figure 4: the number of jobs run at reduced frequency for every
/// (workload, BSLDthreshold, WQthreshold) combination.
///
/// Paper reference points: LLNLThunder runs 1219 reduced jobs at
/// (BSLDthr=1.5, WQ=4) but only 854 at (2, 4) — a *higher* BSLD threshold
/// can reduce *fewer* jobs because the extra slowdown lengthens queues and
/// the WQ gate then blocks later jobs. SDSCBlue runs 2778 reduced jobs at
/// (2, NO) and 2654 at (3, NO).
void render_fig4(Results results) {
  print_original_size_figure(
      results, "Figure 4 — Number of jobs run at reduced frequency", "reduced",
      [](const report::RunResult& run, const report::RunResult&) {
        return std::to_string(run.sim().reduced_jobs);
      });
  std::cout << "\nShape check: counts grow as the WQ limit relaxes; on the "
               "lightly-loaded LLNL traces the BSLDthr=1.5 rows can exceed "
               "the 2.0 rows (the paper's Thunder inversion); the saturated "
               "SDSC reduces almost nothing until WQ=NO.\n";
}

/// Figure 5: average BSLD (Eq. 6, penalized runtime in the numerator) for
/// every (workload, BSLDthreshold, WQthreshold) cell.
///
/// Paper shape: the most aggressive setting (BSLDthr=3, WQ=NO) penalizes
/// the average BSLD the most but yields the highest savings; penalty is not
/// proportional to savings (e.g. LLNLAtlas (1.5, 0) beats (2, 0) on both).
void render_fig5(Results results) {
  print_original_size_figure(
      results,
      "Figure 5 — Average BSLD, original system size (baseline in Table 1)",
      "BSLD", avg_bsld);
  std::cout << "\nShape check: penalties grow toward WQ=NO; SDSC dominates "
               "the scale as in the paper's figure.\n";
}

/// SDSCBlue without and with DVFS(2, 16), each capturing its wait series
/// through the wait-trace instrument in retain_jobs=false mode.
std::vector<report::RunSpec> fig6_specs() {
  report::RunSpec orig;
  orig.workload = wl::WorkloadSource::from_archive(wl::Archive::kSDSCBlue);
  orig.instruments = {"wait-trace"};
  orig.retain_jobs = false;  // the instrument is the only per-job view

  report::RunSpec dvfs = orig;
  core::DvfsConfig config;
  config.bsld_threshold = 2.0;
  config.wq_threshold = 16;
  dvfs.policy.dvfs = config;
  return {orig, dvfs};
}

/// Figure 6: a zoom of SDSC-Blue per-job wait times, with and without
/// frequency scaling (BSLDthreshold = 2, WQthreshold = 16).
///
/// The paper plots wait time (seconds) over a window of the trace and shows
/// the DVFS line sitting well above the original. The wait series is
/// captured where it happens — by the sim::WaitQueueTrace instrument
/// attached through RunSpec::instruments — so the runs never retain
/// per-job outcome vectors. This prints summary statistics of both series,
/// a bucketed view of the zoom window, and writes the full two-column
/// series to fig6_wait_trace.csv for plotting.
void render_fig6(Results results) {
  const auto* orig_trace =
      report::instrument_as<sim::WaitQueueTrace>(results[0], "wait-trace");
  const auto* dvfs_trace =
      report::instrument_as<sim::WaitQueueTrace>(results[1], "wait-trace");
  BSLD_REQUIRE(orig_trace != nullptr && dvfs_trace != nullptr,
               "fig6: wait-trace instrument missing from results");
  const auto& orig_waits = orig_trace->waits();
  const auto& dvfs_waits = dvfs_trace->waits();

  std::cout << "Figure 6 — SDSCBlue wait-time behaviour: Orig vs DVFS(2,16)\n\n";

  util::RunningStats orig_stats;
  util::RunningStats dvfs_stats;
  for (const auto& job : orig_waits) orig_stats.add(static_cast<double>(job.wait));
  for (const auto& job : dvfs_waits) dvfs_stats.add(static_cast<double>(job.wait));

  util::Table summary({"Series", "Mean wait (s)", "Max wait (s)", "Stddev"});
  for (std::size_t c = 1; c < 4; ++c) summary.set_align(c, util::Align::kRight);
  summary.add_row({"Orig", util::fmt_double(orig_stats.mean(), 0),
                   util::fmt_double(orig_stats.max(), 0),
                   util::fmt_double(orig_stats.stddev(), 0)});
  summary.add_row({"DVFS_2_16", util::fmt_double(dvfs_stats.mean(), 0),
                   util::fmt_double(dvfs_stats.max(), 0),
                   util::fmt_double(dvfs_stats.stddev(), 0)});
  std::cout << summary << '\n';

  // Zoom: the middle of the trace, bucketed for terminal display (the
  // paper's figure zooms a comparable slice).
  const std::size_t lo = orig_waits.size() * 2 / 5;
  const std::size_t hi = orig_waits.size() * 3 / 5;
  constexpr std::size_t kBuckets = 20;
  util::Table zoom({"Jobs", "Orig mean wait (s)", "DVFS_2_16 mean wait (s)"});
  zoom.set_align(1, util::Align::kRight);
  zoom.set_align(2, util::Align::kRight);
  const std::size_t per_bucket = (hi - lo) / kBuckets;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::size_t start = lo + b * per_bucket;
    const std::size_t end = start + per_bucket;
    util::RunningStats orig_bucket;
    util::RunningStats dvfs_bucket;
    for (std::size_t i = start; i < end; ++i) {
      orig_bucket.add(static_cast<double>(orig_waits[i].wait));
      dvfs_bucket.add(static_cast<double>(dvfs_waits[i].wait));
    }
    zoom.add_row({std::to_string(start) + "-" + std::to_string(end - 1),
                  util::fmt_double(orig_bucket.mean(), 0),
                  util::fmt_double(dvfs_bucket.mean(), 0)});
  }
  std::cout << "Zoom window (job index buckets, middle fifth of the trace):\n"
            << zoom << '\n';

  std::ofstream csv_file("fig6_wait_trace.csv");
  util::CsvWriter csv(csv_file);
  csv.write_row({"job_index", "submit_s", "wait_orig_s", "wait_dvfs_2_16_s"});
  for (std::size_t i = 0; i < orig_waits.size(); ++i) {
    csv.write_row({std::to_string(i), std::to_string(orig_waits[i].submit),
                   std::to_string(orig_waits[i].wait),
                   std::to_string(dvfs_waits[i].wait)});
  }
  std::cout << "Full series written to fig6_wait_trace.csv\n"
            << "Shape check: the DVFS series sits above the original.\n";
}

/// Figure 7: normalized energies of enlarged systems with the conservative
/// WQthreshold = 0 (BSLDthreshold = 2). Both energies are normalized to the
/// *original-size system without DVFS*.
///
/// Paper shape: computational energy decreases monotonically with system
/// size (larger systems shorten waits, so more jobs pass the BSLD test at
/// low gears); with idle power accounted, savings are smaller and a minimum
/// exists after which more processors cost more energy.
void render_fig7(Results results) {
  print_enlarged_figure(
      results,
      "Figure 7a — Enlarged systems, WQ = 0: E(idle=0), normalized to "
      "original size without DVFS",
      energy(&report::NormalizedEnergy::computational));
  std::cout << '\n';
  print_enlarged_figure(
      results,
      "Figure 7b — Enlarged systems, WQ = 0: E(idle=low), normalized to "
      "original size without DVFS",
      energy(&report::NormalizedEnergy::total));
  std::cout << "\nShape check: panel (a) decreases monotonically with size; "
               "panel (b) reaches a minimum and then rises (idle power of "
               "the extra processors).\n";
}

/// Figure 8: normalized energies of enlarged systems with no wait-queue
/// limit (BSLDthreshold = 2, WQ = NO LIMIT), both normalized to the
/// original-size no-DVFS baseline.
///
/// Paper headline: a 20% larger system with the power-aware scheduler needs
/// almost 30% less CPU energy for the same load.
void render_fig8(Results results) {
  print_enlarged_figure(
      results,
      "Figure 8a — Enlarged systems, WQ = NO: E(idle=0), normalized to "
      "original size without DVFS",
      energy(&report::NormalizedEnergy::computational));
  std::cout << '\n';
  print_enlarged_figure(
      results,
      "Figure 8b — Enlarged systems, WQ = NO: E(idle=low), normalized to "
      "original size without DVFS",
      energy(&report::NormalizedEnergy::total));
  std::cout << "\nShape check: the +20% column of panel (a) sits near 0.7-0.75 "
               "for the non-saturated workloads (the paper's 'almost 30%').\n";
}

/// The WQ = NO grid, then the WQ = 0 grid.
std::vector<report::RunSpec> fig9_specs() {
  std::vector<report::RunSpec> specs = enlarged_specs(std::nullopt);
  const std::vector<report::RunSpec> wq0 = enlarged_specs(std::int64_t{0});
  specs.insert(specs.end(), wq0.begin(), wq0.end());
  return specs;
}

/// Figure 9: average BSLD of the power-aware scheduler on enlarged systems,
/// for WQ = NO LIMIT and WQ = 0 (BSLDthreshold = 2).
///
/// Paper shape: with the power-aware scheduler, every additional increase in
/// system size improves performance; CTC/SDSC/SDSCBlue eventually beat their
/// original no-DVFS performance, while Thunder/Atlas (already at BSLD ~ 1)
/// can only approach it.
void render_fig9(Results results) {
  const Results wq_no = results.first(results.size() / 2);
  print_enlarged_figure(
      wq_no, "Figure 9 (left) — Avg BSLD on enlarged systems, WQ = NO, BSLDthr = 2",
      avg_bsld);
  std::cout << '\n';
  print_enlarged_figure(
      results.subspan(wq_no.size()),
      "Figure 9 (right) — Avg BSLD on enlarged systems, WQ = 0, BSLDthr = 2",
      avg_bsld);
  std::cout << "\nBaselines (original size, no DVFS): ";
  for (std::size_t a = 0; a < wl::all_archives().size(); ++a) {
    std::cout << wl::archive_name(wl::all_archives()[a]) << "="
              << util::fmt_double(baseline_of(wq_no, a).sim().avg_bsld, 2)
              << ' ';
  }
  std::cout << "\nShape check: every row decreases monotonically to the "
               "right (more processors, better performance).\n";
}

struct Artifact {
  std::string_view name;
  std::vector<report::RunSpec> (*specs)();
  void (*render)(Results results);
};

const std::array<Artifact, 10> kArtifacts = {{
    {"table1", [] { return report::original_size_grid().baseline_specs; },
     render_table1},
    {"table2", [] { return std::vector<report::RunSpec>{}; }, render_table2},
    {"table3", table3_specs, render_table3},
    {"fig3", original_size_specs, render_fig3},
    {"fig4", original_size_specs, render_fig4},
    {"fig5", original_size_specs, render_fig5},
    {"fig6", fig6_specs, render_fig6},
    {"fig7", [] { return enlarged_specs(std::int64_t{0}); }, render_fig7},
    {"fig8", [] { return enlarged_specs(std::nullopt); }, render_fig8},
    {"fig9", fig9_specs, render_fig9},
}};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Artifact*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string_view name = argv[i];
    const auto it =
        std::find_if(kArtifacts.begin(), kArtifacts.end(),
                     [name](const Artifact& a) { return a.name == name; });
    if (it == kArtifacts.end()) {
      std::cerr << "bench_paper: unknown artifact `" << name << "`\n";
      return 2;
    }
    selected.push_back(&*it);
  }
  if (selected.empty()) {
    for (const Artifact& artifact : kArtifacts) selected.push_back(&artifact);
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<report::RunSpec> specs;
  std::vector<std::size_t> offsets;  // artifact i owns [offsets[i], offsets[i+1])
  for (const Artifact* artifact : selected) {
    offsets.push_back(specs.size());
    const std::vector<report::RunSpec> own = artifact->specs();
    specs.insert(specs.end(), own.begin(), own.end());
  }
  offsets.push_back(specs.size());

  report::SweepRunner runner;
  const std::vector<report::RunResult> results = runner.run(specs);
  for (std::size_t i = 0; i < selected.size(); ++i) {
    selected[i]->render(
        Results(results).subspan(offsets[i], offsets[i + 1] - offsets[i]));
  }

  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  const report::SweepRunner::Progress progress = runner.progress();
  std::cerr << "bench_paper: slots=" << progress.total
            << " distinct=" << progress.total - progress.deduplicated
            << " wall_s=" << util::fmt_double(wall.count(), 3) << '\n';
  return 0;
}
