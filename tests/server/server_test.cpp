#include "server/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "report/result_cache.hpp"
#include "server/protocol.hpp"
#include "testing/config_value.hpp"
#include "util/error.hpp"
#include "util/socket.hpp"

namespace bsld::server {
namespace {

using testing::config_value;

namespace fs = std::filesystem;

constexpr const char* kRunRequest =
    "run csv\n"
    "workload.source = archive\n"
    "workload.archive = CTC\n"
    "workload.jobs = 120\n"
    "end\n";

/// One reply frame read off the wire.
struct Frame {
  ReplyHeader header;
  std::string payload;
};

Frame read_frame(util::SocketStream& stream) {
  Frame frame;
  const std::optional<std::string> line = stream.read_line();
  EXPECT_TRUE(line.has_value());
  frame.header = parse_reply_header(line.value());
  if (frame.header.ok) {
    frame.payload = stream.read_bytes(frame.header.payload_bytes);
    const std::optional<std::string> end = stream.read_line();
    EXPECT_TRUE(end.has_value());
    EXPECT_EQ(end.value_or(""), "end");
  }
  return frame;
}

std::string attr(const Frame& frame, const std::string& key) {
  for (const auto& [k, v] : frame.header.attrs) {
    if (k == key) return v;
  }
  return "";
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keep the socket path short: sockaddr_un caps it around 107 bytes.
    base_ = fs::temp_directory_path() /
            ("bsld-srv-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(base_);
    fs::create_directories(base_);
    cache_ = std::make_unique<report::ResultCache>(base_ / "cache");
    Server::Options options;
    options.socket_path = (base_ / "sock").string();
    options.threads = 2;
    options.cache = cache_.get();
    server_ = std::make_unique<Server>(options);  // binds immediately.
    serve_thread_ = std::jthread([this] { exit_code_ = server_->serve(); });
  }
  void TearDown() override {
    server_->stop();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
    cache_.reset();
    fs::remove_all(base_);
  }

  [[nodiscard]] util::SocketStream connect() const {
    return util::SocketStream::connect_unix((base_ / "sock").string());
  }

  fs::path base_;
  std::unique_ptr<report::ResultCache> cache_;
  std::unique_ptr<Server> server_;
  std::jthread serve_thread_;
  int exit_code_ = -1;
};

TEST_F(ServerTest, PingPong) {
  util::SocketStream client = connect();
  client.write_all("ping\n");
  const Frame frame = read_frame(client);
  EXPECT_TRUE(frame.header.ok);
  EXPECT_EQ(attr(frame, "pong"), "1");
}

TEST_F(ServerTest, ColdThenWarmRunIsByteIdenticalAndNeverSimulatesTwice) {
  util::SocketStream client = connect();
  client.write_all(kRunRequest);
  const Frame cold = read_frame(client);
  ASSERT_TRUE(cold.header.ok);
  EXPECT_EQ(attr(cold, "executed"), "1");
  EXPECT_EQ(attr(cold, "cache_hits"), "0");
  EXPECT_FALSE(cold.payload.empty());

  // Same connection, same request: a pure cache replay.
  client.write_all(kRunRequest);
  const Frame warm = read_frame(client);
  ASSERT_TRUE(warm.header.ok);
  EXPECT_EQ(attr(warm, "executed"), "0");
  EXPECT_EQ(attr(warm, "cache_hits"), "1");
  EXPECT_EQ(warm.payload, cold.payload);

  // A second client is warm too — the cache is shared, not per-connection.
  util::SocketStream other = connect();
  other.write_all(kRunRequest);
  const Frame second = read_frame(other);
  ASSERT_TRUE(second.header.ok);
  EXPECT_EQ(attr(second, "executed"), "0");
  EXPECT_EQ(second.payload, cold.payload);
}

TEST_F(ServerTest, MalformedRequestsAnswerErrAndKeepTheConnection) {
  util::SocketStream client = connect();
  client.write_all("frobnicate\n");
  const Frame bad_verb = read_frame(client);
  EXPECT_FALSE(bad_verb.header.ok);
  EXPECT_NE(bad_verb.header.error.find("frobnicate"), std::string::npos);

  client.write_all(
      "run csv\n"
      "workload.source = archive\n"
      "workload.archive = CTC\n"
      "policy.dvfs = true\n"
      "policy.bsld_threshold = 2x5\n"
      "end\n");
  const Frame bad_number = read_frame(client);
  EXPECT_FALSE(bad_number.header.ok);
  EXPECT_NE(bad_number.header.error.find("policy.bsld_threshold"),
            std::string::npos);

  // The daemon is still alive and serving on the same connection.
  client.write_all("ping\n");
  EXPECT_TRUE(read_frame(client).header.ok);
}

TEST_F(ServerTest, StatsReportStoreContents) {
  util::SocketStream client = connect();
  client.write_all(kRunRequest);
  ASSERT_TRUE(read_frame(client).header.ok);
  client.write_all("stats\n");
  const Frame stats = read_frame(client);
  ASSERT_TRUE(stats.header.ok);
  const util::Config parsed = util::Config::parse(stats.payload);
  EXPECT_EQ(config_value<std::int64_t>(parsed, "store.entries", -1), 1);
}

TEST_F(ServerTest, SecondDaemonOnTheSameSocketIsRefused) {
  // A live daemon's socket must not be silently stolen (and its file not
  // unlinked) by an accidental second `bsldsim serve`.
  Server::Options options;
  options.socket_path = (base_ / "sock").string();
  options.threads = 1;
  options.cache = cache_.get();
  EXPECT_THROW(Server second(options), Error);
  // The first daemon is unharmed and still serving.
  util::SocketStream client = connect();
  client.write_all("ping\n");
  EXPECT_TRUE(read_frame(client).header.ok);
}

TEST_F(ServerTest, ClientShutdownDrainsWithExitCodeZero) {
  {
    util::SocketStream client = connect();
    client.write_all("shutdown\n");
    const Frame frame = read_frame(client);
    EXPECT_TRUE(frame.header.ok);
    EXPECT_EQ(attr(frame, "stopping"), "1");
  }
  serve_thread_.join();
  EXPECT_EQ(exit_code_, 0);
}

TEST_F(ServerTest, StopFromAnotherThreadDrains) {
  util::SocketStream client = connect();
  client.write_all("ping\n");
  ASSERT_TRUE(read_frame(client).header.ok);
  server_->stop();  // what the SIGTERM handler calls.
  serve_thread_.join();
  EXPECT_EQ(exit_code_, 0);
}

}  // namespace
}  // namespace bsld::server
