/// \file csv.hpp
/// \brief A CSV reader (RFC-4180 quoting) that tests check util::CsvWriter
/// and the result row writers against.
#pragma once

#include <string>
#include <vector>

namespace bsld::testing {

/// Parses CSV text into rows of cells. Handles quoted cells with embedded
/// commas, escaped quotes ("") and newlines. Throws bsld::Error on an
/// unterminated quoted cell.
std::vector<std::vector<std::string>> parse_csv(const std::string& text);

}  // namespace bsld::testing
