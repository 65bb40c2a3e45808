#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include "testing/config_value.hpp"
#include "util/error.hpp"

namespace bsld::server {
namespace {

using testing::config_value;

TEST(RequestParserTest, SimpleVerbs) {
  RequestParser parser;
  const auto ping = parser.feed("ping");
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->kind, Request::Kind::kPing);
  const auto stats = parser.feed("stats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->kind, Request::Kind::kStats);
  const auto shutdown = parser.feed("shutdown");
  ASSERT_TRUE(shutdown.has_value());
  EXPECT_EQ(shutdown->kind, Request::Kind::kShutdown);
}

TEST(RequestParserTest, BlankLinesBetweenRequestsIgnored) {
  RequestParser parser;
  EXPECT_FALSE(parser.feed("").has_value());
  EXPECT_FALSE(parser.feed("   ").has_value());
  EXPECT_TRUE(parser.feed("ping").has_value());
}

TEST(RequestParserTest, RunRequestCollectsBodyUntilEnd) {
  RequestParser parser;
  EXPECT_FALSE(parser.feed("run jsonl").has_value());
  EXPECT_TRUE(parser.mid_request());
  EXPECT_FALSE(parser.feed("workload.source = archive").has_value());
  EXPECT_FALSE(parser.feed("workload.archive = CTC").has_value());
  const auto request = parser.feed("end");
  ASSERT_TRUE(request.has_value());
  EXPECT_FALSE(parser.mid_request());
  EXPECT_EQ(request->kind, Request::Kind::kRun);
  EXPECT_EQ(request->format, "jsonl");
  EXPECT_EQ(config_value<std::string>(request->config, "workload.archive", ""),
            "CTC");
}

TEST(RequestParserTest, RunDefaultsToCsv) {
  RequestParser parser;
  EXPECT_FALSE(parser.feed("run").has_value());
  const auto request = parser.feed("end");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->format, "csv");
}

TEST(RequestParserTest, BadFormatRejectedAndBodySwallowedUntilEnd) {
  RequestParser parser;
  EXPECT_THROW((void)parser.feed("run table"), Error);
  // The client committed to a body; its lines must not be misread as
  // verbs — the stream resynchronizes at the request's `end`.
  EXPECT_FALSE(parser.feed("workload.jobs = 5").has_value());
  EXPECT_FALSE(parser.feed("end").has_value());
  EXPECT_TRUE(parser.feed("ping").has_value());
}

TEST(RequestParserTest, UnknownVerbRejected) {
  RequestParser parser;
  try {
    (void)parser.feed("launch-missiles");
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("launch-missiles"),
              std::string::npos);
  }
}

TEST(RequestParserTest, VerbArgumentsRejected) {
  RequestParser parser;
  EXPECT_THROW((void)parser.feed("ping hard"), Error);
  EXPECT_THROW((void)parser.feed("shutdown --now"), Error);
}

TEST(RequestParserTest, MalformedBodyNamesTheLine) {
  RequestParser parser;
  EXPECT_FALSE(parser.feed("run csv").has_value());
  EXPECT_FALSE(parser.feed("just words, no equals").has_value());
  try {
    (void)parser.feed("end");
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("line 1"), std::string::npos);
  }
  EXPECT_FALSE(parser.mid_request());  // reset after the error.
  EXPECT_TRUE(parser.feed("ping").has_value());
}

TEST(RequestParserTest, OversizedBodyErrorsOnceAndResyncsAtEnd) {
  RequestParser parser;
  EXPECT_FALSE(parser.feed("run csv").has_value());
  for (std::size_t i = 0; i < RequestParser::kMaxBodyLines; ++i) {
    // Append form rather than operator+ to dodge a GCC 12 -Wrestrict
    // false positive (same workaround as result_cache.cpp).
    std::string line = "k";
    line += std::to_string(i);
    line += " = 1";
    EXPECT_FALSE(parser.feed(line).has_value());
  }
  EXPECT_THROW((void)parser.feed("one line too many = 1"), Error);
  // The request's remaining lines must not be misread as verbs; the
  // stream resynchronizes at the request's own `end`.
  EXPECT_FALSE(parser.feed("still = body").has_value());
  EXPECT_FALSE(parser.feed("end").has_value());
  const auto next = parser.feed("ping");
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->kind, Request::Kind::kPing);
}

TEST(ReplyFramingTest, OkReplyRoundTrips) {
  const std::string reply = ok_reply("rows=2 executed=1", "payload\n");
  EXPECT_EQ(reply, "ok rows=2 executed=1 bytes=8\npayload\nend\n");
  const ReplyHeader header =
      parse_reply_header("ok rows=2 executed=1 bytes=8");
  EXPECT_TRUE(header.ok);
  EXPECT_EQ(header.payload_bytes, 8u);
  ASSERT_EQ(header.attrs.size(), 3u);
  EXPECT_EQ(header.attrs[0].first, "rows");
  EXPECT_EQ(header.attrs[0].second, "2");
}

TEST(ReplyFramingTest, EmptyAttrsOkReply) {
  EXPECT_EQ(ok_reply("", ""), "ok bytes=0\nend\n");
  const ReplyHeader header = parse_reply_header("ok bytes=0");
  EXPECT_TRUE(header.ok);
  EXPECT_EQ(header.payload_bytes, 0u);
}

TEST(ReplyFramingTest, ErrReplyFlattensNewlines) {
  const std::string reply = err_reply("bad\nnews");
  EXPECT_EQ(reply, "err bad news\n");
  const ReplyHeader header = parse_reply_header("err bad news");
  EXPECT_FALSE(header.ok);
  EXPECT_EQ(header.error, "bad news");
}

TEST(ReplyFramingTest, MalformedHeadersRejected) {
  EXPECT_THROW((void)parse_reply_header("howdy"), Error);
  EXPECT_THROW((void)parse_reply_header("ok rows=1"), Error);  // no bytes=.
  EXPECT_THROW((void)parse_reply_header("ok bytes=many"), Error);
  EXPECT_THROW((void)parse_reply_header("ok bytes=-1"), Error);
}

}  // namespace
}  // namespace bsld::server
