/// \file input_mutation_test.cpp
/// \brief Hostile-input test of the three text readers beyond SWF lines:
/// RunSpec::parse on spec configs, server::RequestParser::feed on protocol
/// requests, and ResultCache::lookup on stored entries. Seeded mutations of
/// valid input — byte flips, truncation, dropped or duplicated lines,
/// hostile numbers in values, edited `bytes=`/`count=`/`rows=` digits —
/// must each end in a bsld::Error, a cache miss or a valid result: never a
/// crash or a foreign exception. A parsed spec must re-key identically
/// through to_config(), the request parser must accept a valid request
/// after any hostile one, and a cache hit must render like any result. CI
/// runs it under ASan+UBSan like every other ctest entry.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <exception>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "report/experiment.hpp"
#include "report/result_cache.hpp"
#include "report/sinks.hpp"
#include "server/protocol.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace bsld::report {
namespace {

namespace fs = std::filesystem;

/// Replacement tokens: empty, signs, the int32/int64/uint64 boundaries,
/// 20-digit, fractional, exponent and non-finite spellings, near-numbers.
const std::vector<std::string> kTokens = {
    "",      "-",       "0",          "1",
    "-1",    "+5",      "2147483647", "2147483648",
    "-2147483649",      "4294967297", "9223372036854775807",
    "9223372036854775808",            "18446744073709551615",
    "18446744073709551616",           "99999999999999999999",
    "1.5",   "1e400",   "-1e400",     "nan",
    "inf",   "0x10",    "1,2",        "=",
    "[",     "]",       "end",        "run csv",
};

std::string smoke_spec_text() {
  const std::optional<std::string> text =
      util::read_file_bytes(BSLD_SMOKE_SPEC);
  if (!text) throw Error("cannot read " BSLD_SMOKE_SPEC);
  return *text;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

std::size_t pick(util::Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

/// Replaces the digits after one occurrence of `attr` (e.g. "bytes=") with
/// a hostile token or a neighbouring value. Returns false when `text` has
/// no such attribute.
bool edit_attr(util::Rng& rng, std::string& text, const std::string& attr) {
  std::vector<std::size_t> at;
  for (std::size_t pos = text.find(attr); pos != std::string::npos;
       pos = text.find(attr, pos + 1)) {
    at.push_back(pos + attr.size());
  }
  if (at.empty()) return false;
  const std::size_t begin = at[pick(rng, at.size())];
  std::size_t end = begin;
  while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
  const std::string digits = text.substr(begin, end - begin);
  std::string value = kTokens[pick(rng, kTokens.size())];
  const std::optional<std::int64_t> base = util::parse_int(digits);
  if (base && *base < (std::int64_t{1} << 60) && rng.uniform_int(0, 1) == 0) {
    // Off by a little: the edits a torn or hand-patched entry makes.
    value = std::to_string(*base + rng.uniform_int(-2, 2));
  }
  text.replace(begin, end - begin, value);
  return true;
}

/// Applies one seeded mutation to multi-line `text`.
std::string mutate(util::Rng& rng, std::string text) {
  std::vector<std::string> lines = lines_of(text);
  switch (rng.uniform_int(0, 6)) {
    case 0:  // flip one byte to any value, newline and NUL included
      if (!text.empty()) {
        text[pick(rng, text.size())] =
            static_cast<char>(rng.uniform_int(0, 255));
      }
      return text;
    case 1:  // truncate
      return text.substr(0, pick(rng, text.size() + 1));
    case 2:  // drop a line
      if (lines.empty()) return text;
      lines.erase(lines.begin() +
                  static_cast<std::ptrdiff_t>(pick(rng, lines.size())));
      return join_lines(lines);
    case 3: {  // duplicate a line
      if (lines.empty()) return text;
      const std::size_t at = pick(rng, lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      return join_lines(lines);
    }
    case 4: {  // replace a value (after `=`) with a hostile token
      if (lines.empty()) return text;
      std::string& line = lines[pick(rng, lines.size())];
      const std::size_t eq = line.find('=');
      const std::string token = kTokens[pick(rng, kTokens.size())];
      line = eq == std::string::npos ? token : line.substr(0, eq + 1) + token;
      return join_lines(lines);
    }
    case 5:  // edit the digits of a framing attribute
      for (const char* attr : {"bytes=", "count=", "rows="}) {
        if (rng.uniform_int(0, 1) == 0 && edit_attr(rng, text, attr)) {
          return text;
        }
      }
      return text;
    default: {  // insert a hostile line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       pick(rng, lines.size() + 1)),
                   kTokens[pick(rng, kTokens.size())]);
      return join_lines(lines);
    }
  }
}

/// What a mutated input ended in.
struct Outcomes {
  int errors = 0;
  int valid = 0;
};

TEST(InputMutationTest, SpecConfigsParseOrFailCleanlyAndReKeyIdentically) {
  const std::string original = smoke_spec_text();
  util::Rng rng(20261019);
  Outcomes outcomes;
  for (int i = 0; i < 3000; ++i) {
    std::string text = original;
    const int rounds = static_cast<int>(rng.uniform_int(1, 3));
    for (int r = 0; r < rounds; ++r) text = mutate(rng, text);
    SCOPED_TRACE("case " + std::to_string(i) + ":\n" + text);
    std::optional<RunSpec> spec;
    try {
      spec = RunSpec::parse(util::Config::parse(text));
    } catch (const Error&) {
      outcomes.errors += 1;
      continue;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "foreign exception: " << error.what();
      continue;
    }
    outcomes.valid += 1;
    // The canonical form must parse back to the same identity.
    try {
      const util::Config canonical = spec->to_config();
      const RunSpec again =
          RunSpec::parse(util::Config::parse(canonical.to_string()));
      EXPECT_EQ(again.key(), spec->key());
      EXPECT_EQ(again.to_config().to_string(), canonical.to_string());
    } catch (const std::exception& error) {
      ADD_FAILURE() << "canonical form does not parse back: " << error.what();
    }
  }
  EXPECT_GT(outcomes.errors, 0);
  EXPECT_GT(outcomes.valid, 0);
}

TEST(InputMutationTest, RequestParserSurvivesHostileRequestsAndRecovers) {
  const std::string body = smoke_spec_text();
  const util::Config expected = util::Config::parse(body);
  std::vector<std::string> request = {"run csv"};
  for (const std::string& line : lines_of(body)) request.push_back(line);
  request.push_back("end");
  request.push_back("ping");
  const std::string original = join_lines(request);

  util::Rng rng(424242);
  Outcomes outcomes;
  for (int i = 0; i < 3000; ++i) {
    std::string text = original;
    const int rounds = static_cast<int>(rng.uniform_int(1, 3));
    for (int r = 0; r < rounds; ++r) text = mutate(rng, text);
    SCOPED_TRACE("case " + std::to_string(i) + ":\n" + text);

    server::RequestParser parser;
    for (const std::string& line : lines_of(text)) {
      try {
        if (parser.feed(line)) outcomes.valid += 1;
      } catch (const Error&) {
        outcomes.errors += 1;
      } catch (const std::exception& error) {
        ADD_FAILURE() << "foreign exception: " << error.what();
      }
    }
    // A client that stopped mid-request ends it; the parser must then
    // take a valid request as if nothing had happened.
    if (parser.mid_request()) {
      try {
        (void)parser.feed("end");
      } catch (const Error&) {
        outcomes.errors += 1;
      }
    }
    ASSERT_FALSE(parser.mid_request());
    std::optional<server::Request> parsed;
    for (const std::string& line : request) {
      const std::optional<server::Request> done = parser.feed(line);
      if (done && done->kind == server::Request::Kind::kRun) parsed = done;
    }
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->format, "csv");
    EXPECT_EQ(parsed->config.to_string(), expected.to_string());
  }
  EXPECT_GT(outcomes.errors, 0);
  EXPECT_GT(outcomes.valid, 0);
}

TEST(InputMutationTest, CacheEntriesReadAsMissesOrValidResults) {
  const fs::path root =
      fs::temp_directory_path() /
      ("bsld-input-mutation-" + std::to_string(::getpid()));
  fs::remove_all(root);
  RunSpec spec = RunSpec::parse(util::Config::parse(smoke_spec_text()));
  spec.instruments = {"wait-trace", "aggregates"};  // two payload sections.
  {
    ResultCache cache(root);
    cache.store(run_one(spec));
    const std::string hash = util::hex64(util::fnv1a64(spec.key()));
    std::string epoch = "v";
    epoch += std::to_string(ResultCache::kSchemaEpoch);
    const fs::path entry = root / epoch / hash.substr(0, 2) / (hash + ".entry");
    const std::optional<std::string> stored = util::read_file_bytes(entry);
    ASSERT_TRUE(stored.has_value());
    ASSERT_TRUE(cache.lookup(spec).has_value());

    util::Rng rng(77);
    Outcomes outcomes;
    std::size_t lookups = 1;
    for (int i = 0; i < 1500; ++i) {
      std::string bytes = *stored;
      const int rounds = static_cast<int>(rng.uniform_int(1, 2));
      for (int r = 0; r < rounds; ++r) {
        if (rng.uniform_int(0, 2) == 0) {
          bytes = mutate(rng, bytes);
        } else {
          const char* attrs[] = {"bytes=", "count=", "rows="};
          (void)edit_attr(rng, bytes, attrs[pick(rng, 3)]);
        }
      }
      util::atomic_write_file(entry, bytes);
      SCOPED_TRACE("case " + std::to_string(i));
      std::optional<RunResult> hit;
      try {
        lookups += 1;
        hit = cache.lookup(spec);
      } catch (const Error&) {
        outcomes.errors += 1;
        continue;
      } catch (const std::exception& error) {
        ADD_FAILURE() << "foreign exception: " << error.what();
        continue;
      }
      if (!hit) continue;
      outcomes.valid += 1;
      // A hit is a result like any other: it renders through the row
      // writers and every instrument writes its CSV.
      EXPECT_EQ(hit->spec, spec);
      std::ostringstream out;
      CsvResultSink csv(out);
      JsonlResultSink jsonl(out);
      csv.on_result(0, *hit);
      jsonl.on_result(0, *hit);
      for (const auto& instrument : hit->instruments) {
        ASSERT_NE(instrument, nullptr);
        instrument->write_csv(out);
      }
    }
    const ResultCache::Counters counters = cache.counters();
    EXPECT_EQ(counters.hits + counters.misses,
              lookups - static_cast<std::size_t>(outcomes.errors));
    EXPECT_GT(outcomes.valid, 0);
    EXPECT_GT(counters.corrupt, 0u);
    EXPECT_LE(counters.corrupt, counters.misses);
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace bsld::report
