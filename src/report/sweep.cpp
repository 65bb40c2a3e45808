#include "report/sweep.hpp"

#include <exception>
#include <string_view>
#include <utility>

#include "report/result_cache.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace bsld::report {

unsigned shard_of(const RunSpec& spec, unsigned shard_count) {
  BSLD_REQUIRE(shard_count > 0, "shard_of(): shard_count must be positive");
  if (shard_count == 1) return 0;
  return static_cast<unsigned>(util::fnv1a64(spec.key()) % shard_count);
}

namespace {

/// Within-batch deduplication shared by run() and submit(): `unique[u]`
/// is the representative spec index, `fanout[u]` every slot its result
/// serves.
void dedup_specs(const std::vector<RunSpec>& specs,
                 std::vector<std::size_t>& unique,
                 std::vector<std::vector<std::size_t>>& fanout) {
  // Views into the specs' memoized key strings: stable for the duration of
  // this call, so the map never copies the (long) key text.
  std::unordered_map<std::string_view, std::size_t> by_key;
  by_key.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto [it, inserted] = by_key.emplace(specs[i].key(), unique.size());
    if (inserted) {
      unique.push_back(i);
      fanout.emplace_back();
    }
    fanout[it->second].push_back(i);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Batch state behind a SubmitHandle.
// ---------------------------------------------------------------------------

struct SweepRunner::SubmitHandle::Batch {
  util::Mutex mutex;
  util::CondVar done_cv;  ///< Signals unresolved reaching zero.
  std::vector<RunResult> results
      BSLD_GUARDED_BY(mutex);  ///< input order; specs pre-filled.
  Progress progress BSLD_GUARDED_BY(mutex);
  /// Slots still awaiting a result/error.
  std::size_t unresolved BSLD_GUARDED_BY(mutex) = 0;
  std::exception_ptr error BSLD_GUARDED_BY(mutex);
  /// run()'s progress-callback channel: invoked once per distinct spec's
  /// delivery group, after the slots and counters are in, only under
  /// `mutex` (delivery is serialized per batch).
  ProgressCallback on_group BSLD_GUARDED_BY(mutex);

  /// Pre-fills one result slot per spec. Constructors run before the
  /// batch is shared, so the guarded members are safely written bare.
  Batch(const std::vector<RunSpec>& specs, ProgressCallback group)
      : results(specs.size()), unresolved(specs.size()),
        on_group(std::move(group)) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      results[i].spec = specs[i];
    }
    progress.total = specs.size();
  }

  /// How the slots of one distinct spec got their result.
  enum class Served { kExecuted, kCacheHit, kAttached, kShardSkipped };

  void deliver(const std::vector<std::size_t>& slots, const RunResult& result,
               Served served) BSLD_EXCLUDES(mutex) {
    const util::ScopedLock lock(mutex);
    for (const std::size_t slot : slots) {
      RunSpec spec = std::move(results[slot].spec);
      results[slot] = result;
      results[slot].spec = std::move(spec);  // slot keeps its own spec.
    }
    switch (served) {
      case Served::kExecuted:
        progress.completed += slots.size();
        progress.executed += 1;
        progress.deduplicated += slots.size() - 1;
        break;
      case Served::kCacheHit:
        progress.completed += slots.size();
        progress.cache_hits += 1;
        progress.deduplicated += slots.size() - 1;
        break;
      case Served::kAttached:
        // Every slot rode on a simulation another batch owns.
        progress.completed += slots.size();
        progress.deduplicated += slots.size();
        break;
      case Served::kShardSkipped:  // foreign slots never complete.
        progress.shard_skipped += slots.size();
        break;
    }
    unresolved -= slots.size();
    if (on_group && served != Served::kShardSkipped) {
      // A throwing callback must not escape a pool worker (std::terminate
      // would take the whole process down); it surfaces at wait() instead.
      try {
        on_group(progress, results[slots.front()].spec);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (unresolved == 0) done_cv.notify_all();
  }

  void deliver_error(const std::vector<std::size_t>& slots,
                     std::exception_ptr eptr) BSLD_EXCLUDES(mutex) {
    const util::ScopedLock lock(mutex);
    if (!error) error = std::move(eptr);
    unresolved -= slots.size();
    if (unresolved == 0) done_cv.notify_all();
  }
};

std::vector<RunResult> SweepRunner::SubmitHandle::wait() {
  BSLD_REQUIRE(batch_ != nullptr, "SubmitHandle: empty handle");
  const util::ScopedLock lock(batch_->mutex);
  while (batch_->unresolved != 0) batch_->done_cv.wait(batch_->mutex);
  if (batch_->error) std::rethrow_exception(batch_->error);
  return std::move(batch_->results);
}

SweepRunner::Progress SweepRunner::SubmitHandle::progress() const {
  BSLD_REQUIRE(batch_ != nullptr, "SubmitHandle: empty handle");
  const util::ScopedLock lock(batch_->mutex);
  return batch_->progress;
}

// ---------------------------------------------------------------------------
// Persistent pool.
// ---------------------------------------------------------------------------

struct SweepRunner::PendingRun {
  RunSpec spec;
  struct Subscriber {
    std::shared_ptr<SubmitHandle::Batch> batch;
    std::vector<std::size_t> slots;
    bool owner = false;  ///< The batch that enqueued the simulation.
  };
  /// Guarded by the owning runner's pool_mutex_ (a nested struct cannot
  /// name the outer instance's member in BSLD_GUARDED_BY; every access
  /// below is inside a ScopedLock(pool_mutex_) block).
  std::vector<Subscriber> subscribers;
};

SweepRunner::SweepRunner(Options options) : options_(options) {}

SweepRunner::~SweepRunner() { shutdown(); }

void SweepRunner::on_progress(ProgressCallback callback) {
  callback_ = std::move(callback);
}

SweepRunner::Progress SweepRunner::progress() const {
  const util::ScopedLock lock(progress_mutex_);
  return progress_;
}

void SweepRunner::start_pool_locked() {
  if (!workers_.empty()) return;
  unsigned threads = options_.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Defense against a wild Options::threads (e.g. a negative CLI value
  // cast to unsigned): simulation workers beyond a few thousand only
  // exhaust the process, never help.
  threads = std::min(threads, 4096u);
  workers_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void SweepRunner::worker_loop() {
  while (true) {
    std::shared_ptr<PendingRun> task;
    {
      const util::ScopedLock lock(pool_mutex_);
      while (!stopping_ && queue_.empty()) pool_cv_.wait(pool_mutex_);
      if (queue_.empty()) return;  // stopping_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }

    RunResult result;
    std::exception_ptr error;
    bool from_cache = false;
    try {
      // Re-check the cache: the entry may have been stored between the
      // submitter's miss and this worker picking the task up (e.g. by a
      // peer process sharing the store).
      if (options_.cache) {
        if (std::optional<RunResult> cached = options_.cache->lookup(task->spec)) {
          result = std::move(*cached);
          from_cache = true;
        }
      }
      if (!from_cache) {
        result = run_one(task->spec);
        if (options_.cache) options_.cache->store(result);
      }
    } catch (...) {
      error = std::current_exception();
    }

    std::vector<PendingRun::Subscriber> subscribers;
    {
      // Unpublish before fan-out: submitters from here on either hit the
      // cache (stored above) or enqueue a fresh task.
      const util::ScopedLock lock(pool_mutex_);
      inflight_.erase(task->spec.key());
      subscribers = std::move(task->subscribers);
    }
    for (const PendingRun::Subscriber& subscriber : subscribers) {
      if (error) {
        subscriber.batch->deliver_error(subscriber.slots, error);
      } else {
        using Served = SubmitHandle::Batch::Served;
        const Served served =
            !subscriber.owner ? Served::kAttached
            : from_cache      ? Served::kCacheHit
                              : Served::kExecuted;
        subscriber.batch->deliver(subscriber.slots, result, served);
      }
    }
  }
}

SweepRunner::SubmitHandle SweepRunner::submit(
    const std::vector<RunSpec>& specs) {
  return submit_impl(specs, {});
}

SweepRunner::SubmitHandle SweepRunner::submit_impl(
    const std::vector<RunSpec>& specs, ProgressCallback on_group) {
  BSLD_REQUIRE(options_.shard_count > 0,
               "SweepRunner: shard_count must be positive");
  BSLD_REQUIRE(options_.shard_index < options_.shard_count,
               "SweepRunner: shard_index must be < shard_count");

  auto batch =
      std::make_shared<SubmitHandle::Batch>(specs, std::move(on_group));

  SubmitHandle handle;
  handle.batch_ = batch;
  if (specs.empty()) return handle;

  std::vector<std::size_t> unique;
  std::vector<std::vector<std::size_t>> fanout;
  dedup_specs(specs, unique, fanout);

  // Never throw once a slot may have been enqueued: an exception here
  // would unwind run() while queued tasks still reference its progress
  // callback (shutdown() drains the queue and would invoke a dangling
  // callback). Failures — including submit-after-shutdown — resolve the
  // affected slots as batch errors and surface at wait(), which the
  // submitter always reaches.
  using Served = SubmitHandle::Batch::Served;
  for (std::size_t u = 0; u < unique.size(); ++u) {
    const RunSpec& spec = specs[unique[u]];
    try {
      if (options_.shard_count > 1 &&
          shard_of(spec, options_.shard_count) != options_.shard_index) {
        batch->deliver(fanout[u], RunResult{}, Served::kShardSkipped);
        continue;
      }
      // Warm path: answered on this thread, no pool involvement.
      if (options_.cache) {
        if (std::optional<RunResult> cached = options_.cache->lookup(spec)) {
          batch->deliver(fanout[u], *cached, Served::kCacheHit);
          continue;
        }
      }
      {
        const util::ScopedLock lock(pool_mutex_);
        BSLD_REQUIRE(!stopping_, "SweepRunner: submit() after shutdown()");
        start_pool_locked();
        const auto it = inflight_.find(spec.key());
        if (it != inflight_.end()) {
          // Coalesce with the identical spec another batch is running.
          it->second->subscribers.push_back({batch, fanout[u], false});
          continue;
        }
        auto task = std::make_shared<PendingRun>();
        task->spec = spec;
        task->subscribers.push_back({batch, fanout[u], true});
        inflight_.emplace(spec.key(), task);
        queue_.push_back(std::move(task));
      }
      pool_cv_.notify_one();
    } catch (...) {
      batch->deliver_error(fanout[u], std::current_exception());
    }
  }
  return handle;
}

void SweepRunner::shutdown() {
  std::vector<std::jthread> workers;
  {
    const util::ScopedLock lock(pool_mutex_);
    stopping_ = true;
    workers = std::move(workers_);
    workers_.clear();
  }
  pool_cv_.notify_all();
  workers.clear();  // joins; workers drain the queue first.
}

// ---------------------------------------------------------------------------
// One-shot batch API.
// ---------------------------------------------------------------------------

std::vector<RunResult> SweepRunner::run(const std::vector<RunSpec>& specs) {
  // One batch through the same persistent pool submit() feeds; the
  // progress callback fires once per distinct completed spec, inside the
  // batch's delivery lock.
  SubmitHandle handle = submit_impl(specs, callback_);

  std::vector<RunResult> results;
  std::exception_ptr error;
  try {
    results = handle.wait();
  } catch (...) {
    error = std::current_exception();
  }
  {
    // run()'s counters stay pollable on the runner itself — snapshot the
    // batch's progress even when it drained into an error.
    const Progress snapshot = handle.progress();
    const util::ScopedLock lock(progress_mutex_);
    progress_ = snapshot;
  }
  if (error) std::rethrow_exception(error);
  return results;
}

std::vector<RunResult> run_all(const std::vector<RunSpec>& specs,
                               unsigned threads) {
  SweepRunner::Options options;
  options.threads = threads;
  return SweepRunner(options).run(specs);
}

}  // namespace bsld::report
