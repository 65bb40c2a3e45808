/// \file csv.hpp
/// \brief Minimal CSV writing (RFC-4180 quoting) for experiment
/// artifacts such as the Fig. 6 wait-time series.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace bsld::util {

/// Streams rows of cells as CSV with quoting of commas/quotes/newlines.
class CsvWriter {
 public:
  /// Writes into `out`; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  /// Writes one row; cells are quoted only when needed.
  void write_row(const std::vector<std::string>& cells);

 private:
  std::ostream& out_;
};

/// Quotes a single cell if it contains characters requiring quoting.
std::string csv_escape(const std::string& cell);

}  // namespace bsld::util
