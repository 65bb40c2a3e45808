/// \file swf_mutation_test.cpp
/// \brief Hostile-input test of the SWF record parser. Seeded mutations of
/// valid records — byte flips, truncation, NUL bytes, doubled or dropped
/// fields, 20-digit numbers, fractional and non-finite times — must each
/// end in a clean skip, a strict-mode bsld::Error or a valid Job: never a
/// crash, a foreign exception or a record outside the parser's contract.
/// CI runs it under ASan+UBSan and TSan like every other ctest entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
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

/// Replacement tokens: 20-digit and out-of-range integers, fractional,
/// exponent and non-finite spellings, and near-numbers.
const std::vector<std::string> kTokens = {
    "99999999999999999999", "-99999999999999999999", "18446744073709551616",
    "9223372036854775807",  "-9223372036854775808",  "2147483648",
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
