/// \file result_cache.hpp
/// \brief Persistent, content-addressed storage of completed runs.
///
/// The paper's figures are grids of hundreds of (archive x policy x
/// threshold x gear) runs, re-executed incrementally as studies evolve.
/// Runs are deterministic (equal specs yield identical results), so a run
/// executed once never needs executing again: the ResultCache persists each
/// RunResult — SimulationResult aggregates, the per-job outcome vector when
/// retained, and every attached instrument's rendered output — under the
/// FNV-1a hash of RunSpec::key(), and report::SweepRunner consults it
/// before simulating (warm sweeps are pure disk reads).
///
/// On-disk layout (one file per run, human-readable):
///
///   <root>/v<epoch>/<hh>/<hash16>.entry
///
/// where <epoch> is kSchemaEpoch (bumped whenever the entry format or the
/// simulation's numeric behaviour changes — stale epochs are simply never
/// read and are reclaimed by clear()), <hh> the first two hex
/// digits of the hash (fan-out), and <hash16> the full 16-digit hash of
/// the spec key. Every entry embeds the full spec key and is verified on
/// read, so hash collisions degrade to cache misses.
///
/// Guarantees:
///  * atomic publication — entries are written tmp + rename
///    (util::atomic_write_file), so readers never see a partial entry;
///  * corruption tolerance — a truncated, structurally damaged or
///    wrong-epoch entry is treated as a miss (and dropped), never an error:
///    the run is simply recomputed and the entry rewritten. There is no
///    checksum: a changed digit inside a value that still parses is served;
///  * concurrent writers — same-entry writers serialize through a
///    util::FileLock sidecar, and cross-process last-writer-wins is safe
///    because equal keys hold equal content.
///
/// Cache hits reconstruct instruments as CachedInstrument: name, row count
/// and rendered CSV are preserved byte-for-byte (the rendered output of a
/// warm sweep is byte-identical to the cold sweep), while typed accessors
/// (instrument_as<T>) intentionally return nullptr — a cached run replays
/// measurements, it does not re-measure.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "report/experiment.hpp"
#include "util/thread_annotations.hpp"

namespace bsld::report {

/// A replayed instrument loaded from a cache entry: carries the captured
/// name, row count and rendered CSV of the original instrument, and
/// ignores the (never-delivered) observer hooks.
class CachedInstrument final : public sim::Instrument {
 public:
  CachedInstrument(std::string name, std::size_t rows, std::string csv)
      : name_(std::move(name)), rows_(rows), csv_(std::move(csv)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  void write_csv(std::ostream& out) const override;
  [[nodiscard]] std::size_t rows() const override { return rows_; }

  /// The stored CSV payload (what write_csv emits).
  [[nodiscard]] const std::string& csv() const { return csv_; }

 private:
  std::string name_;
  std::size_t rows_;
  std::string csv_;
};

/// Content-addressed on-disk store of completed RunResults.
///
/// Thread-safe: lookup/store may be called concurrently from sweep worker
/// threads (and from multiple processes sharing one root).
class ResultCache {
 public:
  /// Entry format / simulation-behaviour epoch. Bump whenever serialized
  /// fields change meaning, fields are added or removed, or the simulator's
  /// numeric output changes for identical specs — old entries then become
  /// invisible (and reclaimable) instead of silently wrong.
  static constexpr int kSchemaEpoch = 2;

  /// Process-lifetime counters (not persisted).
  struct Counters {
    std::size_t hits = 0;     ///< lookup() served from disk.
    std::size_t misses = 0;   ///< lookup() found nothing usable.
    std::size_t stores = 0;   ///< store() wrote an entry.
    std::size_t corrupt = 0;  ///< Entries dropped as unreadable (subset of
                              ///< misses).
  };

  /// What a directory scan of the store sees.
  struct DiskStats {
    std::size_t entries = 0;        ///< Current-epoch entries.
    std::uintmax_t bytes = 0;       ///< Their total size.
    std::size_t stale_entries = 0;  ///< Entries under other epochs.
  };

  /// Opens (and lazily creates) the store rooted at `root`.
  explicit ResultCache(std::filesystem::path root);

  /// The conventional store location: $BSLD_CACHE_DIR if set, else
  /// $XDG_CACHE_HOME/bsldsim, else $HOME/.cache/bsldsim, else
  /// ./.bsldsim-cache.
  [[nodiscard]] static std::filesystem::path default_root();

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

  /// Where `spec`'s entry lives (exists or not) — exposed for diagnostics
  /// and corruption tests.
  [[nodiscard]] std::filesystem::path entry_path(const RunSpec& spec) const;

  /// Returns the cached result of `spec`, or std::nullopt when absent or
  /// unreadable (truncated, tampered, wrong epoch, hash collision — all
  /// count as misses; unreadable entries are dropped). Never throws for
  /// bad entries. The returned RunResult carries `spec` itself.
  [[nodiscard]] std::optional<RunResult> lookup(const RunSpec& spec)
      BSLD_EXCLUDES(mutex_);

  /// Persists `result` under its spec's key (atomic replace; same-entry
  /// writers serialize on a lock file). Throws bsld::Error when the store
  /// cannot be written (e.g. disk full) — write failures are loud, read
  /// failures are not.
  void store(const RunResult& result) BSLD_EXCLUDES(mutex_);

  [[nodiscard]] Counters counters() const BSLD_EXCLUDES(mutex_);

  /// Scans the store. Purely informational; safe concurrently with use.
  [[nodiscard]] DiskStats disk_stats() const;

  /// Removes every entry of every epoch, including those left behind by
  /// older binaries. Returns entries removed.
  std::size_t clear();

  /// Evicts oldest-first (by write time) until the current epoch holds at
  /// most `max_bytes` of entries. Returns entries removed.
  std::size_t trim(std::uintmax_t max_bytes);

  /// Copies entries present under `other_root` (current epoch only) but
  /// absent here — the merge step for sharded sweeps run against separate
  /// cache directories. Returns entries copied.
  std::size_t absorb(const std::filesystem::path& other_root);

 private:
  [[nodiscard]] std::filesystem::path epoch_dir() const;
  void drop_entry(const std::filesystem::path& path);

  std::filesystem::path root_;  ///< Immutable after construction.
  mutable util::Mutex mutex_;
  Counters counters_ BSLD_GUARDED_BY(mutex_);
};

}  // namespace bsld::report
