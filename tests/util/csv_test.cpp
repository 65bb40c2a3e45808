#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "testing/csv.hpp"
#include "util/error.hpp"

namespace bsld::util {
namespace {

using bsld::testing::parse_csv;

TEST(CsvTest, EscapePlainCellUntouched) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape("123.45"), "123.45");
}

TEST(CsvTest, EscapeQuotesCommasNewlines) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line1\nline2"), "\"line1\nline2\"");
}

TEST(CsvTest, WriterProducesParsableRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"id", "name", "note"});
  writer.write_row({"1", "a,b", "he said \"x\""});
  const auto rows = parse_csv(out.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "a,b");
  EXPECT_EQ(rows[1][2], "he said \"x\"");
}

TEST(CsvTest, ParseSimple) {
  const auto rows = parse_csv("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(CsvTest, ParseQuotedWithEmbeddedNewline) {
  const auto rows = parse_csv("\"x\ny\",z\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "x\ny");
  EXPECT_EQ(rows[0][1], "z");
}

TEST(CsvTest, ParseCrLf) {
  const auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], "c");
}

TEST(CsvTest, ParseMissingFinalNewline) {
  const auto rows = parse_csv("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(CsvTest, ParseEmptyCells) {
  const auto rows = parse_csv(",x,\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"", "x", ""}));
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  EXPECT_THROW((void)parse_csv("\"oops\n"), Error);
}

TEST(CsvTest, EmptyInputNoRows) {
  EXPECT_TRUE(parse_csv("").empty());
}

}  // namespace
}  // namespace bsld::util
