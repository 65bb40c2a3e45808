/// \file sweep.hpp
/// \brief Deterministic parallel execution of experiment grids.
///
/// Every paper figure is a grid of independent simulations (up to 5
/// workloads x 12 parameter combinations); runs are embarrassingly parallel
/// and are dispatched over a worker pool of std::jthread. Results come back
/// in input order regardless of completion order, so parallel and serial
/// execution are bit-identical (covered by tests).
///
/// SweepRunner is the full-featured engine: progress callbacks, spec-keyed
/// deduplication (identical specs inside a grid — e.g. a shared baseline —
/// simulate once and fan the result out), transparent persistence through
/// an optional report::ResultCache (hit = no simulation), and deterministic
/// partitioning of a grid across processes/machines (shard_index /
/// shard_count — each distinct spec belongs to exactly one shard, decided
/// by the stable hash of its key, so shard outputs merge back into the
/// serial result set). Results have one path: the grid-order vector that
/// run() and SubmitHandle::wait() return, which callers render (e.g. with
/// the row writers of report/sinks.hpp). run_all() remains as the thin
/// compatibility wrapper most call sites need.
///
/// For long-lived processes (bsldsim serve) the runner also offers
/// submit(): thread-safe incremental batch submission into one persistent
/// worker pool shared by every concurrent submitter, with cache hits
/// answered on the submitting thread and identical in-flight specs
/// coalesced across batches. run() is the one-shot wrapper over that same
/// pool — one execution path, so dedup, caching, sharding and in-flight
/// coalescing behave identically however a grid is dispatched.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "report/experiment.hpp"
#include "util/thread_annotations.hpp"

namespace bsld::report {

class ResultCache;

/// The shard (in [0, shard_count)) that owns `spec`: the stable FNV-1a
/// hash of RunSpec::key() modulo shard_count. Deterministic across
/// platforms and processes — every participant of a sharded sweep
/// partitions the grid identically.
[[nodiscard]] unsigned shard_of(const RunSpec& spec, unsigned shard_count);

/// Runs RunSpec grids over a jthread pool.
class SweepRunner {
 public:
  struct Options {
    /// Worker threads in the persistent pool (started lazily by the first
    /// run()/submit()); 0 = hardware concurrency.
    unsigned threads = 0;
    /// Persistent result store consulted before every distinct simulation
    /// and written back after (non-owning; nullptr = no caching). Cached
    /// results render byte-identically.
    ResultCache* cache = nullptr;
    /// This process's slice of the grid: only specs with
    /// shard_of(spec, shard_count) == shard_index are executed; foreign
    /// slots are counted as shard_skipped and returned as empty results.
    /// shard_count == 1 runs everything.
    unsigned shard_index = 0;
    unsigned shard_count = 1;
  };

  /// Counters reported to progress callbacks and kept after run().
  struct Progress {
    std::size_t completed = 0;  ///< Owned grid slots with a result so far.
    std::size_t total = 0;      ///< Grid size.
    std::size_t executed = 0;   ///< Simulations actually run so far.
    std::size_t deduplicated = 0;  ///< Slots served from an identical run.
    std::size_t cache_hits = 0;    ///< Distinct specs served from the cache.
    std::size_t shard_skipped = 0;  ///< Slots owned by other shards.
  };

  /// Invoked after every completed simulation, serialized under the
  /// runner's lock; `finished` is the spec that just ran.
  using ProgressCallback =
      std::function<void(const Progress& progress, const RunSpec& finished)>;

  SweepRunner() : SweepRunner(Options{}) {}
  explicit SweepRunner(Options options);

  /// Drains the persistent pool (shutdown()).
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Registers the progress callback (replacing any previous one).
  void on_progress(ProgressCallback callback);

  /// Runs all specs through the persistent pool (started lazily, shared
  /// with submit(), kept alive for the next batch) and returns results in
  /// input order. The first exception — a failed simulation or a throwing
  /// progress callback — is rethrown on the calling thread after the batch
  /// drains. With shard_count > 1, slots owned by other shards come back
  /// as empty results carrying only their spec. Throws bsld::Error when
  /// shard_index >= shard_count (before anything is enqueued) and after
  /// shutdown(). Reentrant: safe to call concurrently from several threads
  /// (each call keeps its own batch; the progress callback would observe
  /// interleaved runs, so callers sharing a runner across threads should
  /// prefer submit()).
  std::vector<RunResult> run(const std::vector<RunSpec>& specs)
      BSLD_EXCLUDES(progress_mutex_, pool_mutex_);

  /// Counters of the most recently finished run(). Batches submitted via
  /// submit() report through their own SubmitHandle::progress().
  [[nodiscard]] Progress progress() const BSLD_EXCLUDES(progress_mutex_);

  /// One batch accepted by submit(): a barrier for the submitter that
  /// hands back the batch's results. Discarding the handle discards the
  /// only way to observe the batch's errors, so it is [[nodiscard]].
  class [[nodiscard]] SubmitHandle {
   public:
    /// Blocks until every slot of the batch has a result, then returns
    /// them in input order (single use — results are moved out). Rethrows
    /// the batch's first error.
    std::vector<RunResult> wait();

    /// The batch's own counters (stable after wait() returned).
    [[nodiscard]] Progress progress() const;

   private:
    friend class SweepRunner;
    struct Batch;
    std::shared_ptr<Batch> batch_;
  };

  /// Incremental submission into a persistent worker pool shared by every
  /// submit() call on this runner — the daemon-mode entry point. Thread
  /// safe; concurrent batches interleave FIFO over options_.threads
  /// workers (0 = hardware concurrency; started lazily on first submit).
  ///
  /// Cache hits are resolved synchronously on the calling thread — a warm
  /// batch completes without ever touching the worker pool. Slots
  /// identical to a spec already in flight (same or another batch) attach
  /// to that simulation instead of enqueueing a duplicate. Sharding
  /// options partition exactly as in run(). The progress callback is NOT
  /// notified. submit() itself only throws on invalid shard options
  /// (before anything is enqueued); any later failure — including
  /// submitting after shutdown() — resolves into the batch and rethrows
  /// from wait().
  [[nodiscard]] SubmitHandle submit(const std::vector<RunSpec>& specs)
      BSLD_EXCLUDES(pool_mutex_);

  /// Stops accepting new batches, finishes everything already queued and
  /// joins the pool. Idempotent; also run by the destructor.
  void shutdown() BSLD_EXCLUDES(pool_mutex_);

 private:
  /// One distinct spec queued for execution; several (batch, slots)
  /// subscribers may be attached while it is in flight.
  struct PendingRun;

  /// The one batch-dispatch path behind run() and submit(): dedups,
  /// shards, answers cache hits synchronously, coalesces onto in-flight
  /// specs and enqueues the rest. `on_group` (run()'s progress callback
  /// channel) fires once per distinct completed spec, inside the batch's
  /// delivery lock; empty for plain submit().
  [[nodiscard]] SubmitHandle submit_impl(const std::vector<RunSpec>& specs,
                                         ProgressCallback on_group)
      BSLD_EXCLUDES(pool_mutex_);

  void start_pool_locked() BSLD_REQUIRES(pool_mutex_);
  void worker_loop() BSLD_EXCLUDES(pool_mutex_);

  Options options_;  ///< Immutable after construction.
  /// Must be registered before the first run(); worker threads read it
  /// unguarded afterwards.
  ProgressCallback callback_;

  mutable util::Mutex progress_mutex_;
  Progress progress_ BSLD_GUARDED_BY(progress_mutex_);

  util::Mutex pool_mutex_;
  util::CondVar pool_cv_;  ///< Signals queue_ growth and stopping_.
  std::deque<std::shared_ptr<PendingRun>> queue_ BSLD_GUARDED_BY(pool_mutex_);
  std::unordered_map<std::string, std::shared_ptr<PendingRun>> inflight_
      BSLD_GUARDED_BY(pool_mutex_);
  std::vector<std::jthread> workers_ BSLD_GUARDED_BY(pool_mutex_);
  bool stopping_ BSLD_GUARDED_BY(pool_mutex_) = false;
};

/// Compatibility wrapper: runs all specs, `threads` at a time (0 = hardware
/// concurrency). Exceptions from any run are rethrown on the calling thread
/// after the pool drains.
std::vector<RunResult> run_all(const std::vector<RunSpec>& specs,
                               unsigned threads = 0);

}  // namespace bsld::report
