#include "server/sweep_service.hpp"

#include <sstream>

#include "report/grid.hpp"
#include "report/result_cache.hpp"
#include "report/sinks.hpp"
#include "util/error.hpp"

namespace bsld::server {

namespace {

report::SweepRunner::Options runner_options(
    const SweepService::Options& options) {
  report::SweepRunner::Options runner;
  runner.threads = options.threads;
  runner.cache = options.cache;
  return runner;
}

}  // namespace

SweepService::SweepService(const Options& options)
    : cache_(options.cache), runner_(runner_options(options)) {
  BSLD_REQUIRE(cache_ != nullptr, "SweepService: a ResultCache is required");
}

SweepService::RunReply SweepService::run(const Request& request) {
  BSLD_REQUIRE(request.kind == Request::Kind::kRun,
               "SweepService::run(): not a run request");
  const std::vector<report::RunSpec> specs =
      report::expand_grid(request.config);

  report::SweepRunner::SubmitHandle handle = runner_.submit(specs);
  const std::vector<report::RunResult> results = handle.wait();

  std::ostringstream out;
  if (request.format == "jsonl") {
    report::JsonlResultSink jsonl(out);
    for (std::size_t i = 0; i < results.size(); ++i) {
      jsonl.on_result(i, results[i]);
    }
  } else {
    report::CsvResultSink csv(out);
    for (std::size_t i = 0; i < results.size(); ++i) {
      csv.on_result(i, results[i]);
    }
  }

  RunReply reply;
  reply.payload = out.str();
  reply.rows = specs.size();
  reply.progress = handle.progress();
  return reply;
}

std::string SweepService::stats_payload() const {
  const report::ResultCache::Counters counters = cache_->counters();
  const report::ResultCache::DiskStats disk = cache_->disk_stats();
  std::ostringstream out;
  out << "cache.root = " << cache_->root().string() << '\n'
      << "cache.epoch = " << report::ResultCache::kSchemaEpoch << '\n'
      << "cache.hits = " << counters.hits << '\n'
      << "cache.misses = " << counters.misses << '\n'
      << "cache.stores = " << counters.stores << '\n'
      << "cache.corrupt = " << counters.corrupt << '\n'
      << "store.entries = " << disk.entries << '\n'
      << "store.bytes = " << disk.bytes << '\n'
      << "store.stale_entries = " << disk.stale_entries << '\n';
  return out.str();
}

void SweepService::drain() { runner_.shutdown(); }

}  // namespace bsld::server
