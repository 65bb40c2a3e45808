#include "server/sweep_service.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "report/grid.hpp"
#include "report/result_cache.hpp"
#include "report/sinks.hpp"
#include "testing/config_value.hpp"
#include "util/error.hpp"

namespace bsld::server {
namespace {

using testing::config_value;

namespace fs = std::filesystem;

constexpr const char* kGridText =
    "workload.source = archive\n"
    "workload.archive = CTC\n"
    "workload.jobs = 150\n"
    "sweep.bsld_thresholds = 1.5, 2\n";

Request run_request(const std::string& body, const std::string& format) {
  RequestParser parser;
  (void)parser.feed("run " + format);
  std::istringstream in(body);
  std::optional<Request> request;
  for (std::string line; std::getline(in, line);) {
    request = parser.feed(line);
  }
  request = parser.feed("end");
  EXPECT_TRUE(request.has_value());
  return *request;
}

class SweepServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("bsld-service-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    cache_ = std::make_unique<report::ResultCache>(root_);
    SweepService::Options options;
    options.threads = 2;
    options.cache = cache_.get();
    service_ = std::make_unique<SweepService>(options);
  }
  void TearDown() override {
    service_->drain();
    service_.reset();
    cache_.reset();
    fs::remove_all(root_);
  }

  fs::path root_;
  std::unique_ptr<report::ResultCache> cache_;
  std::unique_ptr<SweepService> service_;
};

TEST_F(SweepServiceTest, PayloadMatchesDirectSinkOutput) {
  // The byte-identity half of the acceptance criterion, library level:
  // the service's payload must equal what the direct sweep path renders
  // for the same grid config.
  const SweepService::RunReply reply =
      service_->run(run_request(kGridText, "csv"));
  EXPECT_EQ(reply.rows, 2u);
  EXPECT_EQ(reply.progress.executed, 2u);

  const std::vector<report::RunSpec> specs =
      report::expand_grid(util::Config::parse(kGridText));
  report::SweepRunner runner(report::SweepRunner::Options{.threads = 2});
  const std::vector<report::RunResult> results = runner.run(specs);
  std::ostringstream direct;
  report::CsvResultSink csv(direct);
  for (std::size_t i = 0; i < results.size(); ++i) {
    csv.on_result(i, results[i]);
  }

  EXPECT_EQ(reply.payload, direct.str());
}

TEST_F(SweepServiceTest, WarmRepeatIsPureCacheReplayByteIdentical) {
  const SweepService::RunReply cold =
      service_->run(run_request(kGridText, "csv"));
  EXPECT_EQ(cold.progress.executed, 2u);
  EXPECT_EQ(cold.progress.cache_hits, 0u);

  const SweepService::RunReply warm =
      service_->run(run_request(kGridText, "csv"));
  EXPECT_EQ(warm.progress.executed, 0u);  // the simulator never ran,
  EXPECT_EQ(warm.progress.cache_hits, 2u);
  EXPECT_EQ(warm.payload, cold.payload);  // and the bytes are identical.
}

TEST_F(SweepServiceTest, JsonlFormatRenders) {
  const SweepService::RunReply reply =
      service_->run(run_request(kGridText, "jsonl"));
  EXPECT_EQ(reply.payload.rfind("{\"index\":0", 0), 0u);
  EXPECT_NE(reply.payload.find("\n{\"index\":1"), std::string::npos);
}

TEST_F(SweepServiceTest, SingleSpecConfigIsAOneRowGrid) {
  const SweepService::RunReply reply = service_->run(run_request(
      "workload.source = archive\nworkload.archive = CTC\n"
      "workload.jobs = 120\n",
      "csv"));
  EXPECT_EQ(reply.rows, 1u);
  EXPECT_NE(reply.payload.find("\n0,"), std::string::npos);
}

TEST_F(SweepServiceTest, MalformedNumericSpecRaisesNamedError) {
  const Request request = run_request(
      "workload.source = archive\nworkload.archive = CTC\n"
      "policy.dvfs = true\npolicy.bsld_threshold = 2x5\n",
      "csv");
  try {
    (void)service_->run(request);
    FAIL() << "expected bsld::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("policy.bsld_threshold"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("2x5"), std::string::npos);
  }
  // The service survives the bad request and serves the next one.
  EXPECT_EQ(service_->run(run_request(kGridText, "csv")).rows, 2u);
}

TEST_F(SweepServiceTest, StatsPayloadParsesAsConfig) {
  (void)service_->run(run_request(kGridText, "csv"));
  const util::Config stats = util::Config::parse(service_->stats_payload());
  EXPECT_EQ(config_value<std::int64_t>(stats, "store.entries", -1), 2);
  EXPECT_EQ(config_value<std::int64_t>(stats, "cache.stores", -1), 2);
  EXPECT_EQ(config_value<std::string>(stats, "cache.root", ""), root_.string());
}

}  // namespace
}  // namespace bsld::server
