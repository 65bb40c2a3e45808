/// \file sweep_service.hpp
/// \brief The daemon's execution core: one shared SweepRunner + cache
/// behind every client connection.
///
/// Each `run` request — a single RunSpec or a `sweep.*` grid — expands
/// through report::expand_grid and goes into SweepRunner::submit(): all
/// concurrent clients batch into the one persistent worker pool, identical
/// in-flight specs simulate once, and warm specs are answered straight
/// from the report::ResultCache without ever touching the pool. Once the
/// batch drains, its grid-order results are written by the regular row
/// writers (CsvResultSink / JsonlResultSink), so a query's bytes are
/// identical to what `bsldsim --spec/--sweep --format ...` prints for the
/// same config.
#pragma once

#include <cstddef>
#include <string>

#include "report/sweep.hpp"
#include "server/protocol.hpp"

namespace bsld::report {
class ResultCache;
}

namespace bsld::server {

/// Thread-safe request executor shared by every connection handler.
class SweepService {
 public:
  struct Options {
    /// Simulation worker threads (0 = hardware concurrency).
    unsigned threads = 0;
    /// The persistent store; non-owning, required (the daemon exists to
    /// batch requests over it).
    report::ResultCache* cache = nullptr;
  };

  explicit SweepService(const Options& options);

  /// Everything a `run` reply needs.
  struct RunReply {
    std::string payload;  ///< rendered rows in grid order.
    std::size_t rows = 0;  ///< grid slots rendered.
    report::SweepRunner::Progress progress;  ///< the request's counters.
  };

  /// Executes one kRun request (blocking until its batch drains). Throws
  /// bsld::Error on malformed specs — the caller turns that into an
  /// `err` reply. Safe from concurrent connection threads.
  RunReply run(const Request& request);

  /// `stats` payload: cache + store counters, config-style text.
  [[nodiscard]] std::string stats_payload() const;

  /// Graceful drain: finish queued work, stop the pool. Idempotent.
  void drain();

 private:
  report::ResultCache* cache_;
  report::SweepRunner runner_;
};

}  // namespace bsld::server
