/// \file swf_mutation_test.cpp
/// \brief Hostile-input test of the SWF record parser. Seeded mutations of
/// valid records — byte flips, truncation, NUL bytes, doubled or dropped
/// fields, 20-digit numbers, fractional and non-finite times — must each
/// end in a clean skip, a strict-mode bsld::Error or a valid Job: never a
/// crash, a foreign exception or a record outside the parser's contract.
/// Every Job the parser yields must equal an independent decimal reading
/// of its line's tokens, so a value wrapped or rounded on the way into a
/// field (a 2^32 + 1 processor count read as 1 CPU) fails the test. CI runs
/// it under ASan+UBSan and TSan like every other ctest entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/swf.hpp"

namespace bsld::wl {
namespace {

/// Valid records: plain, fallback fields (-1), fractional times, tabs + CR.
const std::vector<std::string> kRecords = {
    "1 100 5 3600 16 -1 -1 16 7200 -1 1 42 -1 -1 -1 -1 -1 -1",
    "7 0 -1 100 -1 -1 -1 8 -1 -1 1 0 -1 -1 -1 -1 -1 -1",
    "12 100.7 -1 3600.2 4 -1 -1 4 7200 -1 1 3 -1 -1 -1 -1 -1 -1",
    "99\t86400\t0\t1\t128\t-1\t-1\t128\t60\t-1\t1\t5\t-1\t-1\t-1\t-1\t-1\t-1"
    "\r",
};

/// Replacement tokens: 20-digit and out-of-range integers, the int32 and
/// uint32 boundaries, fractional, exponent and non-finite spellings, and
/// near-numbers.
const std::vector<std::string> kTokens = {
    "99999999999999999999", "-99999999999999999999", "18446744073709551616",
    "9223372036854775807",  "-9223372036854775808",  "2147483648",
    "2147483647",           "2147483649",            "-2147483649",
    "4294967295",           "4294967297",
    "1.5",                  "0.999",                 "-0.5",
    "1e18",                 "1e19",                  "-1e19",
    "1e400",                "1e-400",                "nan",
    "inf",                  "-inf",                  "0x10",
    "+5",                   "--1",                   ".",
    "-",                    "1.5e3",                 "0",
};

std::vector<std::string> fields_of(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  for (std::string field; in >> field;) fields.push_back(field);
  return fields;
}

std::string join(const std::vector<std::string>& fields) {
  std::string line;
  for (const std::string& field : fields) {
    if (!line.empty()) line += ' ';
    line += field;
  }
  return line;
}

std::size_t pick(util::Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

/// Applies one seeded mutation to `line`.
std::string mutate(util::Rng& rng, std::string line) {
  switch (rng.uniform_int(0, 6)) {
    case 0:  // flip one byte to any value, newline and NUL included
      if (!line.empty()) {
        line[pick(rng, line.size())] =
            static_cast<char>(rng.uniform_int(0, 255));
      }
      return line;
    case 1:  // truncate
      return line.substr(0, pick(rng, line.size() + 1));
    case 2:  // insert a NUL byte
      return line.insert(pick(rng, line.size() + 1), 1, '\0');
    case 3: {  // double a field
      std::vector<std::string> fields = fields_of(line);
      if (fields.empty()) return line;
      const std::size_t at = pick(rng, fields.size());
      fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(at),
                    fields[at]);
      return join(fields);
    }
    case 4: {  // drop a field
      std::vector<std::string> fields = fields_of(line);
      if (fields.empty()) return line;
      fields.erase(fields.begin() +
                   static_cast<std::ptrdiff_t>(pick(rng, fields.size())));
      return join(fields);
    }
    default: {  // replace a field with a hostile number
      std::vector<std::string> fields = fields_of(line);
      if (fields.empty()) return line;
      fields[pick(rng, fields.size())] = kTokens[pick(rng, kTokens.size())];
      return join(fields);
    }
  }
}

// ---------------------------------------------------------------------------
// Independent reading of a record: digit by digit, no library number parser.
// ---------------------------------------------------------------------------

constexpr bool is_c_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_c_space(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !is_c_space(line[i])) ++i;
    if (i > start) fields.push_back(line.substr(start, i - start));
  }
  return fields;
}

/// `magnitude` with `negative` as an int64, or nullopt when it does not fit.
std::optional<std::int64_t> signed_value(std::uint64_t magnitude,
                                         bool negative) {
  constexpr std::uint64_t kMax = 9223372036854775807u;
  if (magnitude > (negative ? kMax + 1 : kMax)) return std::nullopt;
  return negative ? static_cast<std::int64_t>(0 - magnitude)
                  : static_cast<std::int64_t>(magnitude);
}

/// Appends `digits` to `magnitude`; false once it passes uint64.
bool accumulate(std::string_view digits, std::uint64_t& magnitude) {
  for (const char c : digits) {
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (magnitude > (UINT64_MAX - digit) / 10) return false;
    magnitude = magnitude * 10 + digit;
  }
  return true;
}

bool all_digits(std::string_view text) {
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// An integer field: [-]digits within int64.
std::optional<std::int64_t> read_integer(std::string_view token) {
  const bool negative = !token.empty() && token.front() == '-';
  if (negative) token.remove_prefix(1);
  std::uint64_t magnitude = 0;
  if (token.empty() || !all_digits(token) || !accumulate(token, magnitude)) {
    return std::nullopt;
  }
  return signed_value(magnitude, negative);
}

/// A time field: an integer, or [+-]digits[.digits][e[+-]digits] truncated
/// toward zero exactly (the integer part of the decimal value).
std::optional<std::int64_t> read_time(std::string_view token) {
  if (const auto value = read_integer(token)) return value;
  bool negative = false;
  if (!token.empty() && (token.front() == '-' || token.front() == '+')) {
    negative = token.front() == '-';
    token.remove_prefix(1);
  }
  std::int64_t exponent = 0;
  if (const std::size_t e = token.find_first_of("eE");
      e != std::string_view::npos) {
    std::string_view power = token.substr(e + 1);
    token = token.substr(0, e);
    const bool down = !power.empty() && power.front() == '-';
    if (!power.empty() && (power.front() == '-' || power.front() == '+')) {
      power.remove_prefix(1);
    }
    if (power.empty() || !all_digits(power)) return std::nullopt;
    // Saturate: past 10^6 only the sign of the exponent matters.
    std::uint64_t magnitude = 0;
    if (!accumulate(power, magnitude) || magnitude > 1000000) {
      magnitude = 1000000;
    }
    exponent = down ? -static_cast<std::int64_t>(magnitude)
                    : static_cast<std::int64_t>(magnitude);
  }
  const std::size_t point = token.find('.');
  const std::string_view whole = token.substr(0, point);
  const std::string_view fraction =
      point == std::string_view::npos ? std::string_view{}
                                      : token.substr(point + 1);
  if (whole.empty() && fraction.empty()) return std::nullopt;
  if (!all_digits(whole) || !all_digits(fraction)) return std::nullopt;
  // The digits left of the (shifted) point, zero-padded on the right;
  // leading zeros dropped so a long integer part means a large value.
  std::string digits = std::string(whole) + std::string(fraction);
  std::int64_t integer_digits =
      static_cast<std::int64_t>(whole.size()) + exponent;
  const std::size_t zeros = std::min(digits.find_first_not_of('0'),
                                     digits.size());
  digits.erase(0, zeros);
  integer_digits -= static_cast<std::int64_t>(zeros);
  if (digits.empty()) return 0;
  if (integer_digits > 20) return std::nullopt;
  std::uint64_t magnitude = 0;
  for (std::int64_t i = 0; i < integer_digits; ++i) {
    const char digit =
        i < static_cast<std::int64_t>(digits.size())
            ? digits[static_cast<std::size_t>(i)]
            : '0';
    if (!accumulate(std::string_view(&digit, 1), magnitude)) {
      return std::nullopt;
    }
  }
  return signed_value(magnitude, negative && magnitude != 0);
}

/// The Job an SWF data line describes, read field by field; nullopt when
/// the line is a header, blank, short, unreadable or holds no usable job.
std::optional<Job> read_record(std::string_view line) {
  const std::vector<std::string_view> fields = split(line);
  if (fields.size() < 18 || fields[0].front() == ';') return std::nullopt;
  const auto id = read_integer(fields[0]);
  const auto submit = read_time(fields[1]);
  const auto run = read_time(fields[3]);
  const auto alloc = read_integer(fields[4]);
  const auto req_procs = read_integer(fields[7]);
  const auto req_time = read_time(fields[8]);
  const auto user = read_integer(fields[11]);
  if (!id || !submit || !run || !alloc || !req_procs || !req_time || !user) {
    return std::nullopt;
  }
  // Processor counts and the user id are int32 fields.
  constexpr std::int64_t kInt32Max = 2147483647;
  for (const std::int64_t value : {*alloc, *req_procs, *user}) {
    if (value > kInt32Max || value < -kInt32Max - 1) return std::nullopt;
  }
  const std::int64_t size = *alloc > 0 ? *alloc : *req_procs;
  if (*id <= 0 || size <= 0 || *run < 0) return std::nullopt;
  Job job;
  job.id = *id;
  job.submit = *submit > 0 ? *submit : 0;
  job.run_time = *run;
  job.size = static_cast<std::int32_t>(size);
  job.requested_time = *req_time > 0 ? *req_time : *run;
  job.user_id = static_cast<std::int32_t>(*user);
  return job;
}

struct Parsed {
  std::vector<Job> jobs;
  std::size_t skipped = 0;
};

Parsed parse(const std::string& text, const SwfOptions& options) {
  std::istringstream in(text);
  SwfRecordStream records(in, options);
  Parsed parsed;
  while (std::optional<Job> job = records.next()) parsed.jobs.push_back(*job);
  parsed.skipped = records.skipped_lines();
  return parsed;
}

TEST(SwfMutationTest, EveryMutatedRecordSkipsThrowsOrParsesCleanly) {
  util::Rng rng(20261018);
  std::size_t accepted = 0;
  std::size_t skipped = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 20000; ++round) {
    std::string line = kRecords[pick(rng, kRecords.size())];
    const auto mutations = rng.uniform_int(1, 4);
    for (std::int64_t m = 0; m < mutations; ++m) line = mutate(rng, line);
    const std::string text = line + '\n';

    // Lenient: never throws; every record it yields is usable.
    const Parsed lenient = parse(text, SwfOptions{});
    for (const Job& job : lenient.jobs) {
      ASSERT_GT(job.id, 0) << "round " << round;
      ASSERT_GT(job.size, 0) << "round " << round;
      ASSERT_GE(job.run_time, 0) << "round " << round;
      ASSERT_GE(job.submit, 0) << "round " << round;
      ASSERT_GE(job.requested_time, 0) << "round " << round;
    }
    accepted += lenient.jobs.size();
    skipped += lenient.skipped;

    // Each line parsed alone yields what the whole text yields for it, and
    // any job it yields is the independent reading of that line.
    std::vector<Job> per_line;
    for (std::size_t begin = 0; begin < text.size();) {
      const std::size_t end = text.find('\n', begin);
      const std::string record = text.substr(begin, end - begin);
      begin = end + 1;
      for (const Job& job : parse(record + '\n', SwfOptions{}).jobs) {
        const std::optional<Job> expected = read_record(record);
        ASSERT_TRUE(expected.has_value())
            << "round " << round << ": parser kept `" << record << "`";
        ASSERT_EQ(job, *expected) << "round " << round << ": `" << record
                                  << "`";
        per_line.push_back(job);
      }
    }
    ASSERT_EQ(per_line, lenient.jobs) << "round " << round;

    // Strict: a bsld::Error naming the line, or exactly the lenient result.
    try {
      const Parsed strict = parse(text, SwfOptions{.strict = true});
      ASSERT_EQ(strict.jobs, lenient.jobs) << "round " << round;
      ASSERT_EQ(strict.skipped, lenient.skipped) << "round " << round;
    } catch (const Error& error) {
      ASSERT_EQ(std::string(error.what()).rfind("SWF: line ", 0), 0u)
          << error.what();
      ASSERT_GT(lenient.skipped, 0u)
          << "round " << round << ": strict rejected what lenient kept";
      ++rejected;
    }
  }
  // All three outcomes were reached.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace bsld::wl
