#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "testing/config_value.hpp"
#include "util/error.hpp"

namespace bsld::util {
namespace {

using testing::config_value;

TEST(ConfigTest, ParseBasics) {
  const Config config = Config::parse(
      "# platform file\n"
      "power.beta = 0.5\n"
      "gears.count = 6  # inline comment\n"
      "\n"
      "name = paper gear set\n");
  EXPECT_DOUBLE_EQ(config_value<double>(config, "power.beta", 0.0), 0.5);
  EXPECT_EQ(config_value<std::int64_t>(config, "gears.count", 0), 6);
  EXPECT_EQ(config_value<std::string>(config, "name", ""), "paper gear set");
}

TEST(ConfigTest, FallbacksForMissingKeys) {
  const Config config = Config::parse("");
  EXPECT_DOUBLE_EQ(config_value<double>(config, "absent", 2.5), 2.5);
  EXPECT_EQ(config_value<std::int64_t>(config, "absent", -7), -7);
  EXPECT_TRUE(config_value<bool>(config, "absent", true));
  EXPECT_EQ(config_value<std::string>(config, "absent", "x"), "x");
}

TEST(ConfigTest, BooleanSpellings) {
  const Config config = Config::parse(
      "a = true\nb = YES\nc = 1\nd = off\ne = False\nf = 0\n");
  EXPECT_TRUE(config_value<bool>(config, "a", false));
  EXPECT_TRUE(config_value<bool>(config, "b", false));
  EXPECT_TRUE(config_value<bool>(config, "c", false));
  EXPECT_FALSE(config_value<bool>(config, "d", true));
  EXPECT_FALSE(config_value<bool>(config, "e", true));
  EXPECT_FALSE(config_value<bool>(config, "f", true));
}

TEST(ConfigTest, DoubleList) {
  const Config config = Config::parse("gears.frequencies_ghz = 0.8, 1.1,1.4\n");
  const auto list =
      config_value<std::vector<double>>(config, "gears.frequencies_ghz", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[1], 1.1);
}

TEST(ConfigTest, TypeErrorsThrow) {
  const Config config = Config::parse("x = not_a_number\n");
  EXPECT_THROW((void)config_value<double>(config, "x", 0.0), Error);
  EXPECT_THROW((void)config_value<std::int64_t>(config, "x", 0), Error);
  EXPECT_THROW((void)config_value<bool>(config, "x", false), Error);
}

TEST(ConfigTest, NumericDiagnosticsNameTheKey) {
  // Every malformed numeric value must surface as a bsld::Error that
  // names the offending key — never an uncaught std::invalid_argument
  // aborting the process.
  const Config config = Config::parse(
      "threshold = 2x5\nbig = 99999999999999999999999\nbad_nan = nan\n"
      "list = 1.5, oops, 3\n");
  try {
    (void)config_value<double>(config, "threshold", 0.0);
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("threshold"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("2x5"), std::string::npos);
  }
  EXPECT_THROW((void)config_value<std::int64_t>(config, "big", 0), Error);
  EXPECT_THROW((void)config_value<double>(config, "bad_nan", 0.0), Error);
  try {
    (void)config_value<std::vector<double>>(config, "list", {});
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("list"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("oops"), std::string::npos);
  }
}

TEST(ConfigTest, MalformedLineRejected) {
  EXPECT_THROW((void)Config::parse("just words\n"), Error);
  EXPECT_THROW((void)Config::parse("= value\n"), Error);
}

TEST(ConfigTest, DuplicateKeyRejected) {
  EXPECT_THROW((void)Config::parse("a = 1\na = 2\n"), Error);
}

TEST(ConfigTest, SetAndContains) {
  Config config;
  EXPECT_FALSE(config.contains("k"));
  config.set("k", "v");
  EXPECT_TRUE(config.contains("k"));
  EXPECT_EQ(config_value<std::string>(config, "k", ""), "v");
}

TEST(ConfigTest, RoundTripThroughToString) {
  Config config;
  config.set("b.key", "2");
  config.set("a.key", "1");
  const Config reparsed = Config::parse(config.to_string());
  EXPECT_EQ(reparsed.to_string(), config.to_string());
  EXPECT_EQ(config_value<std::int64_t>(reparsed, "a.key", 0), 1);
}

TEST(ConfigTest, HashStartsACommentOnlyAtLineStartOrAfterWhitespace) {
  const Config config = Config::parse(
      "# a comment line\n"
      "   # an indented one\n"
      "path = tr#1.swf\n"
      "x = 1 # inline\n"
      "y = 2\t# after a tab\n");
  EXPECT_EQ(config_value<std::string>(config, "path", ""), "tr#1.swf");
  EXPECT_EQ(config_value<std::int64_t>(config, "x", 0), 1);
  EXPECT_EQ(config_value<std::int64_t>(config, "y", 0), 2);
  EXPECT_EQ(config.to_string(), "path = tr#1.swf\nx = 1\ny = 2\n");
}

TEST(ConfigTest, EraseTakesTheKeyAndTheKeysBelowIt) {
  Config config;
  for (const char* key : {"pm", "pm.cap_watts", "pm.gain", "pmx", "policy"}) {
    config.set(key, "1");
  }
  config.erase("pm");
  EXPECT_EQ(config.to_string(), "pmx = 1\npolicy = 1\n");
}

TEST(ConfigTest, MergeSetsEveryKeyOfTheOther) {
  Config config;
  config.set("a", "1");
  config.set("b", "2");
  Config other;
  other.set("b", "3");
  other.set("c", "4");
  config.merge(other);
  EXPECT_EQ(config.to_string(), "a = 1\nb = 3\nc = 4\n");
}

TEST(ConfigTest, MissingFileThrows) {
  EXPECT_THROW((void)Config::load_file("/nonexistent/path/x.conf"), Error);
}

/// One field of every ConfigCodec form.
struct Sample {
  enum class Shape { kRound, kSquare };
  struct Row {
    double weight = 0.0;
    std::int64_t seconds = 0;
    friend bool operator==(const Row&, const Row&) = default;
  };

  std::string name = "n";
  double ratio = 0.5;
  bool on = true;
  std::int64_t count = 7;
  std::int32_t size = 3;
  std::uint64_t seed = 0;
  std::vector<std::int64_t> counts = {1, 2};
  std::vector<std::string> tags;
  std::optional<double> cap;
  Shape shape = Shape::kRound;
  std::vector<Row> rows = {{0.5, 10}};
  std::vector<Row> ladder;

  friend bool operator==(const Sample&, const Sample&) = default;
};

void bind_config(ConfigCodec& codec, Sample& s) {
  codec.field("name", s.name);
  codec.field("ratio", s.ratio);
  codec.field("on", s.on);
  codec.field("count", s.count);
  codec.field("size", s.size);
  codec.field("seed", s.seed);
  codec.field("counts", s.counts);
  codec.non_default("tags", s.tags, {});
  codec.optional("cap", s.cap);
  codec.choice("shape", s.shape,
               {{"round", Sample::Shape::kRound},
                {"square", Sample::Shape::kSquare}});
  codec.columns({"rows.weight", "rows.seconds"}, s.rows, &Sample::Row::weight,
                &Sample::Row::seconds);
  codec.optional_columns({"ladder.weight", "ladder.seconds"}, s.ladder,
                         &Sample::Row::weight, &Sample::Row::seconds);
}

std::string error_of(const std::string& text, bool require_all = false) {
  try {
    const Config config = Config::parse(text);
    ConfigCodec codec = ConfigCodec::reader(config, require_all);
    Sample sample;
    bind_config(codec, sample);
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

TEST(ConfigCodecTest, WriterRendersCanonicalTextAndReaderRestoresIt) {
  EXPECT_EQ(write_config(Sample{}).to_string(),
            "count = 7\ncounts = 1, 2\nname = n\non = true\nratio = 0.5\n"
            "rows.seconds = 10\nrows.weight = 0.5\nseed = 0\n"
            "shape = round\nsize = 3\n");
  Sample sample;
  sample.ratio = 0.1;
  sample.seed = std::numeric_limits<std::uint64_t>::max();
  sample.size = std::numeric_limits<std::int32_t>::min();
  sample.tags = {"a", "b"};
  sample.cap = 4.5;
  sample.shape = Sample::Shape::kSquare;
  sample.rows = {{1.5, 60}, {0.25, 600}};
  sample.ladder = {{2.0, 30}};
  const Config config = write_config(sample);
  EXPECT_EQ(read_config<Sample>(config), sample) << config.to_string();
  EXPECT_EQ(write_config(read_config<Sample>(config)).to_string(),
            config.to_string());
}

TEST(ConfigCodecTest, AbsentKeysKeepTheirFields) {
  Sample expected;
  expected.ratio = 2.0;
  expected.rows = {{4.0, 10}};  // the absent column keeps its values.
  EXPECT_EQ(read_config<Sample>(
                Config::parse("ratio = 2\nrows.weight = 4\n")),
            expected);
  EXPECT_EQ(read_config<Sample>(Config{}), Sample{});
}

TEST(ConfigCodecTest, MalformedOrMissingValuesNameTheKey) {
  EXPECT_NE(error_of("size = 2147483648\n").find("`size`"), std::string::npos);
  EXPECT_NE(error_of("seed = -1\n").find("`seed`"), std::string::npos);
  EXPECT_NE(error_of("counts = 1, x\n").find("`counts`"), std::string::npos);
  EXPECT_NE(error_of("shape = oval\n").find("round, square"),
            std::string::npos);
  EXPECT_NE(error_of("rows.weight = 1, 2\n").find("differ in length"),
            std::string::npos);
  EXPECT_NE(error_of("ladder.weight = 1\n").find("given together"),
            std::string::npos);
  EXPECT_NE(error_of("ladder.weight =\nladder.seconds =\n").find("empty"),
            std::string::npos);
  // A strict reader (the result cache's) treats an absent key as an error.
  const std::string written = write_config(Sample{}).to_string();
  EXPECT_EQ(error_of(written, /*require_all=*/true), "");
  EXPECT_NE(error_of("name = n\n", /*require_all=*/true).find("missing key"),
            std::string::npos);
}

TEST(ConfigCodecTest, UnreadKeysAreErrorsNamingTheKeyAndItsOrigin) {
  Config config = write_config(Sample{});
  Sample sample;
  ConfigCodec complete = ConfigCodec::reader(config);
  bind_config(complete, sample);
  EXPECT_NO_THROW(complete.reject_unread());

  config.set("ratoi", "2");
  ConfigCodec misspelled = ConfigCodec::reader(config);
  bind_config(misspelled, sample);
  try {
    misspelled.reject_unread();
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("`ratoi`"), std::string::npos)
        << error.what();
  }

  config.set("ratoi", "2", "--ratio");
  ConfigCodec flagged = ConfigCodec::reader(config);
  bind_config(flagged, sample);
  try {
    flagged.reject_unread();
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("--ratio"), std::string::npos)
        << error.what();
  }
}

TEST(ConfigCodecTest, ValueErrorsNameTheOriginOfTheKey) {
  Config config;
  config.set("ratio", "2x5", "--ratio");
  try {
    (void)read_config<Sample>(config);
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--ratio"), std::string::npos) << what;
    EXPECT_NE(what.find("`ratio`"), std::string::npos) << what;
  }
}

TEST(ConfigCodecTest, WriterRefusesTextThatWouldNotReadBack) {
  for (const char* name : {"a #b", "a\t#b", "#a", " a", "a ", "a\nb"}) {
    Sample sample;
    sample.name = name;
    try {
      (void)write_config(sample);
      FAIL() << "wrote `" << name << "`";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("`name`"), std::string::npos)
          << error.what();
    }
  }
  for (const char* name : {"a#b", "a=b", "a b", ""}) {
    Sample sample;
    sample.name = name;
    EXPECT_EQ(read_config<Sample>(Config::parse(
                  write_config(sample).to_string())).name,
              name);
  }
}

}  // namespace
}  // namespace bsld::util
