#include "report/result_cache.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/config.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"

namespace bsld::report {

namespace {

/// First line of every entry; the epoch makes old-format files invisible.
std::string header_line() {
  std::string line = "bsldsim-cache epoch=";
  line += std::to_string(ResultCache::kSchemaEpoch);
  return line;
}

/// "v<epoch>": the directory level that versions the store. (Append form
/// rather than operator+ to dodge a GCC 12 -Wrestrict false positive.)
std::string epoch_dir_name() {
  std::string name = "v";
  name += std::to_string(ResultCache::kSchemaEpoch);
  return name;
}

template <typename Int>
bool parse_int(std::string_view text, Int& out) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

bool parse_double(std::string_view text, double& out) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string int_list(const std::vector<std::int64_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(values[i]);
  }
  return out;
}

bool parse_int_list(std::string_view text, std::vector<std::int64_t>& out) {
  out.clear();
  if (text.empty()) return true;
  for (std::string_view part : split(text, ',')) {
    while (!part.empty() && part.front() == ' ') part.remove_prefix(1);
    while (!part.empty() && part.back() == ' ') part.remove_suffix(1);
    std::int64_t value = 0;
    if (!parse_int(part, value)) return false;
    out.push_back(value);
  }
  return true;
}

/// Sequential reader over the entry bytes. Every accessor returns false on
/// any shortfall, so a truncated or garbled entry fails parsing instead of
/// crashing or misreading.
struct Reader {
  std::string_view bytes;
  std::size_t pos = 0;

  bool line(std::string_view& out) {
    if (pos >= bytes.size()) return false;
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string_view::npos) return false;  // entries end in '\n'.
    out = bytes.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
  }

  /// Exactly `count` raw bytes followed by the '\n' separator.
  bool payload(std::size_t count, std::string_view& out) {
    if (count >= bytes.size() - pos) return false;  // >=: separator too.
    if (bytes[pos + count] != '\n') return false;
    out = bytes.substr(pos, count);
    pos = pos + count + 1;
    return true;
  }

  [[nodiscard]] bool at_end() const { return pos == bytes.size(); }
  [[nodiscard]] std::size_t remaining() const { return bytes.size() - pos; }
};

/// Matches `[<name> <key1>=<v1> <key2>=<v2> ...]` against an expected
/// section name and attribute key list; returns the values in key order.
/// The last attribute's value may contain spaces (used for `fields=`).
bool section_attrs(std::string_view line, std::string_view name,
                   const std::vector<std::string_view>& keys,
                   std::vector<std::string_view>& values) {
  if (line.size() < 2 || line.front() != '[' || line.back() != ']') {
    return false;
  }
  std::string_view body = line.substr(1, line.size() - 2);
  values.clear();
  const std::size_t name_end = body.find(' ');
  if (keys.empty()) return body == name;
  if (name_end == std::string_view::npos || body.substr(0, name_end) != name) {
    return false;
  }
  body.remove_prefix(name_end + 1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const bool last = i + 1 == keys.size();
    const std::size_t end = last ? body.size() : body.find(' ');
    if (end == std::string_view::npos) return false;
    const std::string_view part = body.substr(0, end);
    const std::size_t eq = part.find('=');
    if (eq == std::string_view::npos || part.substr(0, eq) != keys[i]) {
      return false;
    }
    values.push_back(part.substr(eq + 1));
    if (!last) body.remove_prefix(end + 1);
  }
  return true;
}

constexpr std::string_view kJobFields =
    "id,submit,size,run_time_top,start,end,gear,final_gear,boosted,"
    "scaled_runtime,scaled_requested,bsld";

std::string serialize_entry(const RunResult& result) {
  const sim::SimulationResult& sim = result.sim();
  std::ostringstream out;
  out << header_line() << '\n';

  const std::string key = result.spec.key();
  out << "[spec bytes=" << key.size() << "]\n" << key << '\n';

  util::Config aggregates;
  aggregates.set("workload", sim.workload);
  aggregates.set("policy", sim.policy);
  aggregates.set("cpus", std::to_string(sim.cpus));
  aggregates.set("job_count", std::to_string(sim.job_count));
  aggregates.set("avg_bsld", util::config_double(sim.avg_bsld));
  aggregates.set("avg_wait", util::config_double(sim.avg_wait));
  aggregates.set("reduced_jobs", std::to_string(sim.reduced_jobs));
  aggregates.set("boosted_jobs", std::to_string(sim.boosted_jobs));
  aggregates.set("jobs_per_gear", int_list(sim.jobs_per_gear));
  aggregates.set("energy.computational_joules",
                 util::config_double(sim.energy.computational_joules));
  aggregates.set("energy.total_joules",
                 util::config_double(sim.energy.total_joules));
  aggregates.set("energy.idle_joules",
                 util::config_double(sim.energy.idle_joules));
  aggregates.set("energy.busy_core_seconds",
                 util::config_double(sim.energy.busy_core_seconds));
  aggregates.set("energy.idle_core_seconds",
                 util::config_double(sim.energy.idle_core_seconds));
  // Sleep-state fields (pm = sleep): written unconditionally for a stable
  // entry shape; 0 for every run without a sleep manager. Entries written
  // before these keys existed parse as 0 — correct, they are pm-none runs.
  aggregates.set("energy.sleep_core_seconds",
                 util::config_double(sim.energy.sleep_core_seconds));
  aggregates.set("energy.sleep_joules",
                 util::config_double(sim.energy.sleep_joules));
  aggregates.set("energy.horizon", std::to_string(sim.energy.horizon));
  aggregates.set("makespan", std::to_string(sim.makespan));
  aggregates.set("utilization", util::config_double(sim.utilization));
  aggregates.set("events_processed", std::to_string(sim.events_processed));
  aggregates.set("peak_live_jobs", std::to_string(sim.peak_live_jobs));
  out << "[sim]\n" << aggregates.to_string();

  out << "[jobs count=" << sim.jobs.size() << " fields=" << kJobFields
      << "]\n";
  for (const sim::JobOutcome& job : sim.jobs) {
    out << job.id << ',' << job.submit << ',' << job.size << ','
        << job.run_time_top << ',' << job.start << ',' << job.end << ','
        << job.gear << ',' << job.final_gear << ',' << (job.boosted ? 1 : 0)
        << ',' << job.scaled_runtime << ',' << job.scaled_requested << ','
        << util::config_double(job.bsld) << '\n';
  }

  for (const auto& instrument : result.instruments) {
    if (!instrument) continue;
    // The section header is space/bracket-delimited; a name the parser
    // cannot read back would make every lookup of this entry a corrupt
    // miss (a permanent re-simulate/re-store loop). Fail the store loudly
    // instead.
    const std::string name = instrument->name();
    BSLD_REQUIRE(!name.empty() &&
                     name.find_first_of(" []\n\r") == std::string::npos,
                 "ResultCache: instrument name `" + name +
                     "` cannot be cached (no spaces, brackets or newlines)");
    std::ostringstream csv;
    instrument->write_csv(csv);
    const std::string payload = csv.str();
    out << "[instrument name=" << name << " rows=" << instrument->rows()
        << " bytes=" << payload.size() << "]\n"
        << payload << '\n';
  }

  out << "[end]\n";
  return out.str();
}

bool parse_aggregates(const std::string& text, sim::SimulationResult& sim) {
  util::Config config;
  try {
    config = util::Config::parse(text);
  } catch (const Error&) {
    return false;
  }
  static const char* kRequired[] = {
      "workload",       "policy",
      "cpus",           "job_count",
      "avg_bsld",       "avg_wait",
      "reduced_jobs",   "boosted_jobs",
      "jobs_per_gear",  "energy.computational_joules",
      "energy.total_joules",  "energy.idle_joules",
      "energy.busy_core_seconds", "energy.idle_core_seconds",
      "energy.horizon", "makespan",
      "utilization",    "events_processed",
      "peak_live_jobs"};
  for (const char* key : kRequired) {
    if (!config.contains(key)) return false;
  }
  try {
    sim.workload = config.get_string("workload", "");
    sim.policy = config.get_string("policy", "");
    sim.cpus = static_cast<std::int32_t>(config.get_int("cpus", 0));
    sim.job_count = config.get_int("job_count", 0);
    sim.avg_bsld = config.get_double("avg_bsld", 0.0);
    sim.avg_wait = config.get_double("avg_wait", 0.0);
    sim.reduced_jobs = config.get_int("reduced_jobs", 0);
    sim.boosted_jobs = config.get_int("boosted_jobs", 0);
    if (!parse_int_list(config.get_string("jobs_per_gear", ""),
                        sim.jobs_per_gear)) {
      return false;
    }
    sim.energy.computational_joules =
        config.get_double("energy.computational_joules", 0.0);
    sim.energy.total_joules = config.get_double("energy.total_joules", 0.0);
    sim.energy.idle_joules = config.get_double("energy.idle_joules", 0.0);
    sim.energy.busy_core_seconds =
        config.get_double("energy.busy_core_seconds", 0.0);
    sim.energy.idle_core_seconds =
        config.get_double("energy.idle_core_seconds", 0.0);
    sim.energy.sleep_core_seconds =
        config.get_double("energy.sleep_core_seconds", 0.0);
    sim.energy.sleep_joules = config.get_double("energy.sleep_joules", 0.0);
    sim.energy.horizon = config.get_int("energy.horizon", 0);
    sim.makespan = config.get_int("makespan", 0);
    sim.utilization = config.get_double("utilization", 0.0);
    sim.events_processed =
        static_cast<std::uint64_t>(config.get_int("events_processed", 0));
    sim.peak_live_jobs = config.get_int("peak_live_jobs", 0);
  } catch (const Error&) {
    return false;
  }
  return true;
}

bool parse_job_row(std::string_view row, sim::JobOutcome& job) {
  const std::vector<std::string_view> cells = split(row, ',');
  if (cells.size() != 12) return false;
  std::int64_t boosted = 0;
  if (!parse_int(cells[0], job.id) || !parse_int(cells[1], job.submit) ||
      !parse_int(cells[2], job.size) || !parse_int(cells[3], job.run_time_top) ||
      !parse_int(cells[4], job.start) || !parse_int(cells[5], job.end) ||
      !parse_int(cells[6], job.gear) || !parse_int(cells[7], job.final_gear) ||
      !parse_int(cells[8], boosted) ||
      !parse_int(cells[9], job.scaled_runtime) ||
      !parse_int(cells[10], job.scaled_requested) ||
      !parse_double(cells[11], job.bsld)) {
    return false;
  }
  if (boosted != 0 && boosted != 1) return false;
  job.boosted = boosted == 1;
  return true;
}

/// Parses entry bytes into `out` (out.spec left untouched — the caller owns
/// it). Returns false on any structural or numeric anomaly; a structurally
/// valid entry whose embedded key differs from `expected_key` (64-bit hash
/// collision) sets `key_mismatch` instead.
bool parse_entry(std::string_view bytes, const std::string& expected_key,
                 RunResult& out, bool& key_mismatch) {
  key_mismatch = false;
  Reader reader{bytes};
  std::string_view line;
  if (!reader.line(line) || line != header_line()) return false;

  std::vector<std::string_view> attrs;
  if (!reader.line(line) || !section_attrs(line, "spec", {"bytes"}, attrs)) {
    return false;
  }
  std::size_t spec_bytes = 0;
  if (!parse_int(attrs[0], spec_bytes)) return false;
  std::string_view stored_key;
  if (!reader.payload(spec_bytes, stored_key)) return false;
  if (stored_key != expected_key) {
    key_mismatch = true;
    return false;
  }

  if (!reader.line(line) || !section_attrs(line, "sim", {}, attrs)) {
    return false;
  }
  std::string sim_text;
  while (true) {
    if (!reader.line(line)) return false;
    if (!line.empty() && line.front() == '[') break;  // next section header.
    sim_text.append(line);
    sim_text += '\n';
  }
  // Build the payload locally, then install it in one shot: RunResult
  // shares its (immutable) payload across aliasing slots, so there is no
  // in-place mutation path to parse into.
  sim::SimulationResult payload;
  if (!parse_aggregates(sim_text, payload)) return false;

  if (!section_attrs(line, "jobs", {"count", "fields"}, attrs)) return false;
  std::size_t job_count = 0;
  if (!parse_int(attrs[0], job_count) || attrs[1] != kJobFields) return false;
  // A row is at least 12 one-digit cells, 11 commas and '\n': a count the
  // remaining bytes cannot hold is corrupt and must not size the reserve.
  if (job_count > reader.remaining() / 24) return false;
  payload.jobs.clear();
  payload.jobs.reserve(job_count);
  for (std::size_t i = 0; i < job_count; ++i) {
    sim::JobOutcome job;
    if (!reader.line(line) || !parse_job_row(line, job)) return false;
    payload.jobs.push_back(job);
  }
  out.set_sim(std::move(payload));

  out.instruments.clear();
  while (true) {
    if (!reader.line(line)) return false;
    if (line == "[end]") break;
    if (!section_attrs(line, "instrument", {"name", "rows", "bytes"}, attrs)) {
      return false;
    }
    std::size_t rows = 0;
    std::size_t payload_bytes = 0;
    if (attrs[0].empty() || !parse_int(attrs[1], rows) ||
        !parse_int(attrs[2], payload_bytes)) {
      return false;
    }
    std::string_view payload;
    if (!reader.payload(payload_bytes, payload)) return false;
    out.instruments.push_back(std::make_shared<CachedInstrument>(
        std::string(attrs[0]), rows, std::string(payload)));
  }
  return reader.at_end();
}

}  // namespace

void CachedInstrument::write_csv(std::ostream& out) const { out << csv_; }

ResultCache::ResultCache(std::filesystem::path root) : root_(std::move(root)) {
  BSLD_REQUIRE(!root_.empty(), "ResultCache: empty root directory");
}

std::filesystem::path ResultCache::default_root() {
  if (const char* dir = std::getenv("BSLD_CACHE_DIR"); dir && *dir) {
    return dir;
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg) {
    return std::filesystem::path(xdg) / "bsldsim";
  }
  if (const char* home = std::getenv("HOME"); home && *home) {
    return std::filesystem::path(home) / ".cache" / "bsldsim";
  }
  return std::filesystem::path(".bsldsim-cache");
}

std::filesystem::path ResultCache::epoch_dir() const {
  return root_ / epoch_dir_name();
}

std::filesystem::path ResultCache::entry_path(const RunSpec& spec) const {
  const std::string hash = util::hex64(util::fnv1a64(spec.key()));
  return epoch_dir() / hash.substr(0, 2) / (hash + ".entry");
}

std::optional<RunResult> ResultCache::lookup(const RunSpec& spec) {
  const std::filesystem::path path = entry_path(spec);
  const std::optional<std::string> bytes = util::read_file_bytes(path);
  if (!bytes) {
    const util::ScopedLock lock(mutex_);
    counters_.misses += 1;
    return std::nullopt;
  }
  RunResult result;
  bool key_mismatch = false;
  if (!parse_entry(*bytes, spec.key(), result, key_mismatch)) {
    if (!key_mismatch) drop_entry(path);  // unreadable: recompute, rewrite.
    const util::ScopedLock lock(mutex_);
    counters_.misses += 1;
    if (!key_mismatch) counters_.corrupt += 1;
    return std::nullopt;
  }
  result.spec = spec;
  {
    const util::ScopedLock lock(mutex_);
    counters_.hits += 1;
  }
  return result;
}

void ResultCache::store(const RunResult& result) {
  const std::filesystem::path path = entry_path(result.spec);
  const std::string bytes = serialize_entry(result);
  {
    std::filesystem::path lock_path = path;
    lock_path += ".lock";
    const util::FileLock lock(lock_path);
    util::atomic_write_file(path, bytes);
  }
  const util::ScopedLock guard(mutex_);
  counters_.stores += 1;
}

ResultCache::Counters ResultCache::counters() const {
  const util::ScopedLock lock(mutex_);
  return counters_;
}

void ResultCache::drop_entry(const std::filesystem::path& path) {
  std::filesystem::path lock_path = path;
  lock_path += ".lock";
  try {
    const util::FileLock lock(lock_path);
    std::error_code ec;
    std::filesystem::remove(path, ec);
  } catch (const Error&) {
    // Best effort: an undeletable corrupt entry still reads as a miss.
  }
}

namespace {

bool is_entry(const std::filesystem::directory_entry& entry) {
  return entry.is_regular_file() && entry.path().extension() == ".entry";
}

bool is_epoch_dir(const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  if (name.size() < 2 || name[0] != 'v') return false;
  return std::all_of(name.begin() + 1, name.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

ResultCache::DiskStats ResultCache::disk_stats() const {
  DiskStats stats;
  std::error_code ec;
  for (const auto& epoch :
       std::filesystem::directory_iterator(root_, ec)) {
    if (!epoch.is_directory() || !is_epoch_dir(epoch.path())) continue;
    const bool current = epoch.path() == epoch_dir();
    std::error_code walk_ec;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             epoch.path(), walk_ec)) {
      if (!is_entry(entry)) continue;
      if (current) {
        stats.entries += 1;
        std::error_code size_ec;
        const std::uintmax_t size = entry.file_size(size_ec);
        if (!size_ec) stats.bytes += size;
      } else {
        stats.stale_entries += 1;
      }
    }
  }
  return stats;
}

std::size_t ResultCache::clear() {
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& epoch :
       std::filesystem::directory_iterator(root_, ec)) {
    if (!epoch.is_directory() || !is_epoch_dir(epoch.path())) continue;
    std::error_code walk_ec;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             epoch.path(), walk_ec)) {
      if (is_entry(entry)) removed += 1;
    }
    std::error_code remove_ec;
    std::filesystem::remove_all(epoch.path(), remove_ec);
  }
  return removed;
}

std::size_t ResultCache::trim(std::uintmax_t max_bytes) {
  struct Candidate {
    std::filesystem::file_time_type mtime;
    std::uintmax_t size = 0;
    std::filesystem::path path;
  };
  std::vector<Candidate> candidates;
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           epoch_dir(), ec)) {
    if (!is_entry(entry)) continue;
    std::error_code attr_ec;
    Candidate candidate;
    candidate.size = entry.file_size(attr_ec);
    if (attr_ec) continue;
    candidate.mtime = entry.last_write_time(attr_ec);
    if (attr_ec) continue;
    candidate.path = entry.path();
    total += candidate.size;
    candidates.push_back(std::move(candidate));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.mtime < b.mtime;
            });
  std::size_t removed = 0;
  for (const Candidate& candidate : candidates) {
    if (total <= max_bytes) break;
    // Serialize with writers of this entry through its FileLock sidecar,
    // then re-check the write time under the lock: an entry republished
    // between the scan above and this point is a fresh result a concurrent
    // sweep is about to read — unlinking it here would race its tmp+rename
    // publish against the first lookup. A changed (or vanished) entry is
    // simply no longer this scan's eviction candidate.
    std::filesystem::path lock_path = candidate.path;
    lock_path += ".lock";
    try {
      const util::FileLock lock(lock_path);
      std::error_code attr_ec;
      const auto mtime =
          std::filesystem::last_write_time(candidate.path, attr_ec);
      if (attr_ec || mtime != candidate.mtime) continue;
      std::error_code remove_ec;
      if (std::filesystem::remove(candidate.path, remove_ec) && !remove_ec) {
        total -= candidate.size;
        removed += 1;
      }
    } catch (const Error&) {
      // Best effort: an unlockable entry stays; trim is advisory.
    }
  }
  return removed;
}

std::size_t ResultCache::absorb(const std::filesystem::path& other_root) {
  const std::filesystem::path other_epoch = other_root / epoch_dir_name();
  std::size_t copied = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           other_epoch, ec)) {
    if (!is_entry(entry)) continue;
    const std::optional<std::string> bytes =
        util::read_file_bytes(entry.path());
    if (!bytes) continue;
    const std::filesystem::path dest = epoch_dir() /
                                       entry.path().parent_path().filename() /
                                       entry.path().filename();
    std::filesystem::path lock_path = dest;
    lock_path += ".lock";
    const util::FileLock lock(lock_path);
    if (std::filesystem::exists(dest)) continue;  // equal keys, equal bytes.
    util::atomic_write_file(dest, *bytes);
    copied += 1;
  }
  return copied;
}

}  // namespace bsld::report
