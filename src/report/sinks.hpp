/// \file sinks.hpp
/// \brief Renderers of sweep results: write a grid's headline metrics as
/// CSV or JSON Lines rows, or as an aligned table for terminal output.
/// Callers hand them the grid-order vector that SweepRunner::run() or
/// SubmitHandle::wait() returns. All render one record per grid slot with
/// the spec's derived label, so any grid — paper figure or ad-hoc sweep —
/// gets uniform, diffable output without per-binary wiring.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "report/experiment.hpp"
#include "util/table.hpp"

namespace bsld::report {

/// The shared column set of the CSV writer and the table.
std::vector<std::string> result_row_headers();

/// Renders one result as cells matching result_row_headers().
std::vector<std::string> result_row(std::size_t index, const RunResult& result);

/// Writes results as CSV rows, one per on_result() call, in the order the
/// caller passes them (the `index` column names the grid slot). The header
/// row is written up front.
class CsvResultSink {
 public:
  /// Writes into `out`; the stream must outlive the writer.
  explicit CsvResultSink(std::ostream& out);

  void on_result(std::size_t index, const RunResult& result);

 private:
  std::ostream& out_;
};

/// Writes results as JSON Lines: one self-contained JSON object per
/// on_result() call (the "index" field names the grid slot). Numbers are
/// emitted in shortest round-trip form; attached instruments are listed by
/// name so downstream tooling knows which views were captured.
class JsonlResultSink {
 public:
  /// Writes into `out`; the stream must outlive the writer.
  explicit JsonlResultSink(std::ostream& out);

  void on_result(std::size_t index, const RunResult& result);

 private:
  std::ostream& out_;
};

/// Renders `results[slot]` for each of `slots`, in the order given, as an
/// aligned util::Table with result_row_headers() columns.
[[nodiscard]] util::Table result_table(const std::vector<RunResult>& results,
                                       const std::vector<std::size_t>& slots);

}  // namespace bsld::report
