#include "testing/csv.hpp"

#include "util/error.hpp"

namespace bsld::testing {

std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool row_has_content = false;

  std::size_t i = 0;
  const std::size_t n = text.size();
  auto end_cell = [&] {
    row.push_back(cell);
    cell.clear();
  };
  auto end_row = [&] {
    end_cell();
    rows.push_back(row);
    row.clear();
    row_has_content = false;
  };

  while (i < n) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
    } else {
      switch (c) {
        case '"':
          in_quotes = true;
          row_has_content = true;
          break;
        case ',':
          end_cell();
          row_has_content = true;
          break;
        case '\r':
          break;  // tolerate CRLF
        case '\n':
          end_row();
          break;
        default:
          cell += c;
          row_has_content = true;
          break;
      }
    }
    ++i;
  }
  BSLD_REQUIRE(!in_quotes, "parse_csv(): unterminated quoted cell");
  if (row_has_content || !cell.empty() || !row.empty()) end_row();
  return rows;
}

}  // namespace bsld::testing
