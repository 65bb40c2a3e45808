#include "util/csv.hpp"

#include <ostream>

namespace bsld::util {

std::string csv_escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << csv_escape(cells[i]);
  }
  out_ << '\n';
}

}  // namespace bsld::util
