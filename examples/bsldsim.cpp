/// \file bsldsim.cpp
/// \brief The downstream user's entry point: a config-driven simulator run.
/// A thin CLI over report::RunSpec — every seam of the library (workload
/// source, platform file, policy registry, DVFS thresholds, the
/// dynamic-raise extension, machine scaling) is a field of the spec, and
/// the run itself is one report::run_one() call. Grids go through
/// report::expand_grid + report::SweepRunner, with optional persistent
/// caching (report::ResultCache) and deterministic sharding across
/// processes.
///
/// Run: ./bsldsim --workload SDSCBlue --bsld 2 --wq 16
///      ./bsldsim --workload trace.swf --policy conservative --platform p.conf
///      ./bsldsim --spec run.conf                # replay a saved spec
///      ./bsldsim --workload CTC --save-spec run.conf   # save for later
///      ./bsldsim --instruments wait-trace,utilization --instruments-out .
///      ./bsldsim --format jsonl                 # one JSON object, machine-readable
///      ./bsldsim --pm cap-uniform --pm-cap 400000      # cluster power cap
///      ./bsldsim --pm setpoint --pm-setpoint 350000    # closed-loop control
///      ./bsldsim --list-policies                # registry contents
///      ./bsldsim --list-instruments
///      ./bsldsim --list-pms
///
/// Sweeps, caching, sharding:
///      ./bsldsim --sweep grid.conf --format csv > grid.csv
///      ./bsldsim --sweep grid.conf --cache      # warm re-runs are free
///      ./bsldsim --sweep grid.conf --shard-count 2 --shard-index 0 > s0.csv
///      ./bsldsim --merge-shards s0.csv,s1.csv > grid.csv
///      ./bsldsim --cache-stats                  # store contents
///      ./bsldsim --cache-clear                  # drop every entry
///
/// Daemon mode (see README "Daemon mode" and src/server/):
///      ./bsldsim serve --socket /tmp/bsld.sock --cache-dir cache &
///      ./bsldsim query --socket /tmp/bsld.sock --spec run.conf > run.csv
///      ./bsldsim query --socket /tmp/bsld.sock --sweep grid.conf > grid.csv
///      ./bsldsim query --socket /tmp/bsld.sock --workload CTC --bsld 2
///      ./bsldsim query --socket /tmp/bsld.sock --ping
///      ./bsldsim query --socket /tmp/bsld.sock --server-stats
///      ./bsldsim query --socket /tmp/bsld.sock --stop-server
///
/// A sweep grid file is a RunSpec config plus `sweep.*` axes
/// (see report/grid.hpp); sweep output is emitted in grid order, so a
/// merged set of shard outputs is byte-identical to the serial run.
/// --cache-stats/--cache-clear/--cache-trim-mb/--absorb-cache are
/// maintenance commands: they operate on the store and exit.
///
/// Each single-run flag sets spec keys (the kSpecFlags table): the flags
/// the user gave are layered onto the --spec file, or without one onto the
/// flag defaults, and the result is read once by RunSpec::parse. A key a
/// given flag sets that the spec does not read is an error naming the flag
/// (--bsld or --wq under --dvfs false, or over a no-DVFS --spec file
/// without --dvfs true). --workload, --platform and --raise replace their
/// whole key group; --dvfs false drops the DVFS keys. --save-spec writes
/// the effective spec in its canonical round-trippable form (see
/// RunSpec::to_config).
///
/// Platform file keys (all optional):
///   gears.frequencies_ghz = 0.8, 1.1, 1.4, 1.7, 2.0, 2.3
///   gears.voltages_v      = 1.0, 1.1, 1.2, 1.3, 1.4, 1.5
///   power.activity_ratio = 2.5
///   power.static_fraction_at_top = 0.25
///   power.top_active_power_watts = 95
///   time.beta = 0.5
#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "pm/registry.hpp"
#include "report/experiment.hpp"
#include "report/grid.hpp"
#include "report/result_cache.hpp"
#include "report/sinks.hpp"
#include "report/sweep.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/cli.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/parse.hpp"
#include "util/socket.hpp"
#include "util/table.hpp"

using namespace bsld;

namespace {

/// --threads, validated: a negative value must not wrap to a ~2^32-thread
/// pool, and five-digit pools only exhaust the process.
unsigned thread_count(const util::Cli& cli) {
  const std::int64_t threads = cli.get_int("threads");
  BSLD_REQUIRE(threads >= 0 && threads <= 4096,
               "bsldsim: --threads must be between 0 (hardware concurrency) "
               "and 4096, got " + std::to_string(threads));
  return static_cast<unsigned>(threads);
}

/// The store selected by --cache-dir (explicit) or --cache (conventional
/// location); nullptr when caching is off.
std::unique_ptr<report::ResultCache> open_cache(const util::Cli& cli) {
  const std::string dir = cli.get("cache-dir");
  if (!dir.empty()) return std::make_unique<report::ResultCache>(dir);
  if (cli.get_bool("cache")) {
    return std::make_unique<report::ResultCache>(
        report::ResultCache::default_root());
  }
  return nullptr;
}

/// Comma-separated list -> trimmed items (the `instruments` flag splitting).
std::vector<std::string> split_list(const std::string& text) {
  util::Config list;
  list.set("items", text);
  std::vector<std::string> items;
  util::ConfigCodec::reader(list).field("items", items);
  return items;
}

/// --merge-shards: folds shard CSV/JSONL outputs into the serial result
/// set. Shard outputs are emitted in grid order with the grid index as the
/// leading column/field, and every grid slot lives in exactly one shard,
/// so re-sorting the union of verbatim rows by index reproduces the serial
/// run byte for byte.
int merge_shards(const std::string& list) {
  const std::vector<std::string> files = split_list(list);
  BSLD_REQUIRE(!files.empty(), "bsldsim: --merge-shards needs files");

  bool format_known = false;
  bool is_csv = false;
  std::string header;
  std::map<std::uint64_t, std::string> rows;  // grid index -> verbatim line.

  for (const std::string& file : files) {
    const std::optional<std::string> bytes = util::read_file_bytes(file);
    BSLD_REQUIRE(bytes.has_value(), "bsldsim: cannot read shard file " + file);
    std::vector<std::string> lines;
    std::istringstream in(*bytes);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    if (lines.empty()) continue;  // an empty shard contributes nothing.

    std::size_t first_row = 0;
    const bool file_is_csv = lines[0].rfind("index,", 0) == 0;
    if (!format_known) {
      format_known = true;
      is_csv = file_is_csv;
      if (is_csv) header = lines[0];
    }
    if (is_csv) {
      BSLD_REQUIRE(file_is_csv && lines[0] == header,
                   "bsldsim: shard file " + file +
                       " has a different CSV header than the first shard");
      first_row = 1;
    } else {
      BSLD_REQUIRE(!file_is_csv, "bsldsim: shard file " + file +
                                     " is CSV but the first shard was JSONL");
    }

    for (std::size_t i = first_row; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      if (line.empty()) continue;
      std::uint64_t index = 0;
      std::size_t pos = 0;
      if (is_csv) {
        pos = 0;  // index is the first CSV column.
      } else {
        const std::string prefix = "{\"index\":";
        BSLD_REQUIRE(line.rfind(prefix, 0) == 0,
                     "bsldsim: shard file " + file +
                         " has a malformed JSONL row: " + line);
        pos = prefix.size();
      }
      std::size_t digits = 0;
      while (pos + digits < line.size() && line[pos + digits] >= '0' &&
             line[pos + digits] <= '9') {
        ++digits;
      }
      BSLD_REQUIRE(digits > 0, "bsldsim: shard file " + file +
                                   " has a row without a grid index: " + line);
      index = util::require_uint(line.substr(pos, digits),
                                 "bsldsim: shard file " + file +
                                     ", grid index of row `" + line + "`");
      const auto [it, inserted] = rows.emplace(index, line);
      BSLD_REQUIRE(inserted,
                   "bsldsim: grid index " + std::to_string(index) +
                       " appears in more than one shard file (overlapping "
                       "shards?)");
      (void)it;
    }
  }

  // Grid indices are dense 0..N-1 and every slot lives in exactly one
  // shard, so a gap means a shard file is missing or was cut short — a
  // silently truncated "serial-identical" result would be worse than an
  // error.
  if (!rows.empty()) {
    const std::uint64_t highest = rows.rbegin()->first;
    BSLD_REQUIRE(highest + 1 == rows.size(),
                 "bsldsim: merged shards cover " + std::to_string(rows.size()) +
                     " of " + std::to_string(highest + 1) +
                     " grid slots — missing or truncated shard file?");
  }

  if (is_csv && !header.empty()) std::cout << header << '\n';
  for (const auto& [index, line] : rows) std::cout << line << '\n';
  return 0;
}

/// Maintenance commands: --absorb-cache, --cache-clear, --cache-trim-mb,
/// --cache-stats — operate on the store and exit.
int run_cache_maintenance(const util::Cli& cli) {
  std::unique_ptr<report::ResultCache> cache = open_cache(cli);
  if (!cache) {
    cache = std::make_unique<report::ResultCache>(
        report::ResultCache::default_root());
  }

  if (!cli.get("absorb-cache").empty()) {
    for (const std::string& other : split_list(cli.get("absorb-cache"))) {
      const std::size_t copied = cache->absorb(other);
      std::cout << "absorbed " << copied << " entries from " << other << '\n';
    }
  }
  if (cli.get_bool("cache-clear")) {
    std::cout << "cleared " << cache->clear() << " entries from "
              << cache->root().string() << '\n';
  }
  if (cli.get_int("cache-trim-mb") >= 0) {
    const auto max_bytes =
        static_cast<std::uintmax_t>(cli.get_int("cache-trim-mb")) * 1024 *
        1024;
    const std::size_t evicted = cache->trim(max_bytes);
    std::cout << "evicted " << evicted << " entries (oldest first)\n";
  }
  if (cli.get_bool("cache-stats")) {
    const report::ResultCache::DiskStats stats = cache->disk_stats();
    std::cout << "cache " << cache->root().string() << " (epoch "
              << report::ResultCache::kSchemaEpoch << "): " << stats.entries
              << " entries, " << stats.bytes << " bytes";
    if (stats.stale_entries != 0) {
      std::cout << ", " << stats.stale_entries
                << " stale-epoch entries (reclaim with --cache-clear)";
    }
    std::cout << '\n';
  }
  return 0;
}

/// --sweep: expand the grid file, run it through SweepRunner and print the
/// slots this shard owns in grid order. Single-run flags (--workload,
/// --bsld, ...) do not apply — the grid file is self-contained.
int run_sweep(const util::Cli& cli, const std::string& format) {
  const std::vector<report::RunSpec> specs =
      report::expand_grid(util::Config::load_file(cli.get("sweep")));

  std::unique_ptr<report::ResultCache> cache = open_cache(cli);
  report::SweepRunner::Options options;
  options.threads = thread_count(cli);
  options.cache = cache.get();
  options.shard_index = static_cast<unsigned>(cli.get_int("shard-index"));
  options.shard_count = static_cast<unsigned>(cli.get_int("shard-count"));
  report::SweepRunner runner(options);

  const std::vector<report::RunResult> results = runner.run(specs);

  // This shard's slots in grid order: what the shard prints, and what
  // --merge-shards sorts back into the serial output.
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (report::shard_of(specs[i], options.shard_count) ==
        options.shard_index) {
      slots.push_back(i);
    }
  }
  if (format == "csv") {
    report::CsvResultSink csv(std::cout);
    for (const std::size_t slot : slots) csv.on_result(slot, results[slot]);
  } else if (format == "jsonl") {
    report::JsonlResultSink jsonl(std::cout);
    for (const std::size_t slot : slots) jsonl.on_result(slot, results[slot]);
  } else {
    std::cout << report::result_table(results, slots);
  }

  const report::SweepRunner::Progress& progress = runner.progress();
  std::ostream& notice = format == "table" ? std::cout : std::cerr;
  notice << "sweep: " << progress.total << " specs, " << progress.executed
         << " executed, " << progress.deduplicated << " deduplicated, "
         << progress.cache_hits << " cache hits";
  if (options.shard_count > 1) {
    notice << ", " << progress.shard_skipped << " on other shards (shard "
           << options.shard_index << "/" << options.shard_count << ")";
  }
  notice << '\n';
  if (cache) {
    const report::ResultCache::Counters counters = cache->counters();
    notice << "cache " << cache->root().string() << ": " << counters.hits
           << " hits, " << counters.misses << " misses, " << counters.stores
           << " stores";
    if (counters.corrupt != 0) {
      notice << ", " << counters.corrupt << " corrupt entries dropped";
    }
    notice << '\n';
  }
  return 0;
}

/// One aligned `name  description` block of a registry listing
/// (--list-policies / --list-instruments / --list-pms).
void print_registry(
    const std::string& heading,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::size_t width = 0;
  for (const auto& [name, _] : entries) width = std::max(width, name.size());
  std::cout << heading << ":\n";
  for (const auto& [name, description] : entries) {
    std::cout << "  " << name;
    if (!description.empty()) {
      std::cout << std::string(width - name.size() + 2, ' ') << description;
    }
    std::cout << '\n';
  }
}

/// How a single-run flag lands on the spec config.
enum class Sets {
  kKey,                ///< `key` takes the flag's text.
  kKeyUnlessNegative,  ///< `group` (or `key`) goes; a value >= 0 sets `key`.
  kDvfs,               ///< `key`; false also drops the DVFS keys.
  kWorkload,           ///< The `workload.*` group of wl::resolve_source.
  kPlatform,           ///< The file's gears.*, power.* and time.beta keys.
};

/// A single-run flag: its registration and the spec keys it sets.
struct SpecFlag {
  const char* name;
  const char* fallback;
  const char* help;
  Sets sets;
  const char* key;
  const char* group = nullptr;
};

/// Every single-run flag, in layering order: --jobs and --seed before
/// --workload (which sizes its trace with them), --dvfs before the
/// thresholds it switches.
const SpecFlag kSpecFlags[] = {
    {"jobs", "5000", "trace length (0 = whole SWF file)", Sets::kKey,
     "workload.jobs"},
    {"seed", "0",
     "generator seed for synthetic workloads (0 = the archive's canonical "
     "seed)",
     Sets::kKey, "workload.seed"},
    {"workload", "SDSCBlue",
     "archive model (CTC/SDSC/SDSCBlue/LLNLThunder/LLNLAtlas) or an SWF "
     "file path",
     Sets::kWorkload, "workload"},
    {"platform", "", "platform config file (see header comment)",
     Sets::kPlatform, nullptr},
    {"policy", "easy",
     "scheduling policy name (see core::PolicyRegistry): easy, fcfs, "
     "conservative, easy+raise",
     Sets::kKey, "policy.name"},
    {"selector", "FirstFit", "resource selector: FirstFit, LastFit",
     Sets::kKey, "policy.selector"},
    {"dvfs", "true", "apply the BSLD-threshold DVFS algorithm", Sets::kDvfs,
     "policy.dvfs"},
    {"bsld", "2.0", "BSLDthreshold", Sets::kKey, "policy.bsld_threshold"},
    {"wq", "NO", "WQthreshold: integer or NO (no limit)", Sets::kKey,
     "policy.wq_threshold"},
    {"raise", "-1",
     "dynamic-raise queue limit (-1 = off; extension, easy only)",
     Sets::kKeyUnlessNegative, "policy.raise.queue_limit", "policy.raise"},
    {"scale", "1.0", "machine size multiplier (1.2 = +20%)", Sets::kKey,
     "scale"},
    {"pm", "none",
     "power manager name (see --list-pms): none, cap-uniform, "
     "cap-proportional, sleep, setpoint",
     Sets::kKey, "pm"},
    {"pm-cap", "-1",
     "cluster power cap in watts (cap-* families; optional hard cap for "
     "setpoint; -1 = unset)",
     Sets::kKeyUnlessNegative, "pm.cap_watts"},
    {"pm-setpoint", "-1",
     "target cluster power in watts for --pm setpoint (-1 = unset)",
     Sets::kKeyUnlessNegative, "pm.setpoint_watts"},
    {"pm-interval", "-1",
     "setpoint control interval in seconds (-1 = default 300)",
     Sets::kKeyUnlessNegative, "pm.interval_s"},
    {"pm-gain", "-1", "setpoint integral gain (-1 = default 0.5)",
     Sets::kKeyUnlessNegative, "pm.gain"},
    {"instruments", "",
     "comma-separated extra instruments (see --list-instruments), e.g. "
     "wait-trace,utilization",
     Sets::kKey, "instruments"},
    {"retain-jobs", "true",
     "keep per-job outcomes in memory; false = streaming aggregate-only run "
     "(O(1) memory, disables --out)",
     Sets::kKey, "retain_jobs"},
};

/// Layers `flag` with `value` onto `config`; the keys it sets carry
/// `origin`, so an error about one of them names the flag.
void layer(util::Config& config, const SpecFlag& flag,
           const std::string& value, const std::string& origin) {
  switch (flag.sets) {
    case Sets::kKey:
      config.set(flag.key, value, origin);
      return;
    case Sets::kKeyUnlessNegative: {
      const std::string what = std::string("Cli: flag --") + flag.name;
      config.erase(flag.group != nullptr ? flag.group : flag.key);
      if (util::require_double(value, what) >= 0.0) {
        config.set(flag.key, value, origin);
      }
      return;
    }
    case Sets::kDvfs: {
      config.set(flag.key, value, origin);
      bool on = true;
      util::ConfigCodec::reader(config).field(flag.key, on);
      if (on) return;
      for (const char* key :
           {"policy.bsld_threshold", "policy.wq_threshold", "policy.bsld_floor",
            "policy.wq_counts_self", "policy.backfill_requires_bsld_at_top"}) {
        config.erase(key);
      }
      return;
    }
    case Sets::kWorkload: {
      const auto current = util::read_config<wl::WorkloadSource>(config);
      config.erase(flag.key);
      config.merge(util::write_config(
                       wl::resolve_source(value, current.jobs, current.seed)),
                   origin);
      return;
    }
    case Sets::kPlatform: {
      if (value.empty()) return;
      const util::Config platform = util::Config::load_file(value);
      util::Config other = platform;
      for (const char* group : {"gears", "power", "time.beta"}) {
        other.erase(group);
      }
      BSLD_REQUIRE(other.to_string().empty(),
                   "bsldsim: --platform file `" + value +
                       "` holds keys that are not platform keys:\n" +
                       other.to_string());
      config.erase("gears");
      config.erase("power");
      config.merge(platform, origin);
      return;
    }
  }
}

/// The effective RunSpec of the single-run flags: the --spec file, or
/// without one the flag defaults, with the flags the user gave layered on
/// top and the result parsed once. A key that a given flag sets and the
/// spec does not read (--bsld under --dvfs false) is an error naming the
/// flag; the defaults never are.
report::RunSpec spec_from_flags(const util::Cli& cli) {
  const bool from_file = !cli.get("spec").empty();
  util::Config config;
  if (from_file) {
    config = util::Config::load_file(cli.get("spec"));
  } else {
    for (const SpecFlag& flag : kSpecFlags) {
      layer(config, flag, flag.fallback, "");
    }
  }
  for (const SpecFlag& flag : kSpecFlags) {
    const bool given = cli.given(flag.name);
    // Without a spec file the flags are the whole spec: the workload is
    // always resolved from --workload, --jobs and --seed.
    if (given || (!from_file && flag.sets == Sets::kWorkload)) {
      layer(config, flag, cli.get(flag.name),
            given ? "--" + std::string(flag.name) : "");
    }
  }
  return report::RunSpec::parse(config);
}

// --- Daemon mode -----------------------------------------------------------

/// The running daemon, for the async-signal-safe SIGTERM/SIGINT handler.
server::Server* g_server = nullptr;

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->stop();  // shutdown(2): signal-safe.
}

/// `bsldsim serve`: bind the socket, run the accept loop until SIGTERM /
/// SIGINT / a client `shutdown` request, then drain and exit 0.
int run_serve(const util::Cli& cli) {
  const std::string socket = cli.get("socket");
  BSLD_REQUIRE(!socket.empty(), "bsldsim: serve needs --socket PATH");

  // The daemon exists to batch queries over the persistent store, so a
  // cache is always on: --cache-dir picks the location, the conventional
  // root otherwise.
  std::unique_ptr<report::ResultCache> cache = open_cache(cli);
  if (!cache) {
    cache = std::make_unique<report::ResultCache>(
        report::ResultCache::default_root());
  }

  server::Server::Options options;
  options.socket_path = socket;
  options.threads = thread_count(cli);
  options.cache = cache.get();
  server::Server server(options);

  g_server = &server;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill us.

  std::cerr << "bsldsim: serving on " << server.socket_path() << " (cache "
            << cache->root().string() << ")\n";
  const int code = server.serve();
  g_server = nullptr;
  std::cerr << "bsldsim: drained, exiting\n";
  return code;
}

/// `bsldsim query`: one request against a running daemon. Payload bytes
/// go to stdout verbatim (byte-identical to the direct run); reply
/// attributes and diagnostics go to stderr.
int run_query(const util::Cli& cli) {
  const std::string socket = cli.get("socket");
  BSLD_REQUIRE(!socket.empty(), "bsldsim: query needs --socket PATH");
  util::SocketStream stream = util::SocketStream::connect_unix(socket);

  std::string request;
  if (cli.get_bool("ping")) {
    request = "ping\n";
  } else if (cli.get_bool("server-stats")) {
    request = "stats\n";
  } else if (cli.get_bool("stop-server")) {
    request = "shutdown\n";
  } else {
    // The server only speaks machine formats; default to csv unless the
    // user asked for one explicitly.
    const std::string format = cli.given("format") ? cli.get("format") : "csv";
    BSLD_REQUIRE(format == "csv" || format == "jsonl",
                 "bsldsim: query --format must be csv or jsonl");
    // Single-run override flags layer over a --spec file exactly as in
    // direct mode; only a flag-less --spec/--sweep ships the file bytes
    // verbatim (so the server's parse diagnostics are exercised end to
    // end). --sweep grids ignore single-run flags, as in direct mode.
    const bool spec_flag_given =
        std::any_of(std::begin(kSpecFlags), std::end(kSpecFlags),
                    [&](const SpecFlag& flag) { return cli.given(flag.name); });
    std::string body;
    if (!cli.get("sweep").empty() ||
        (!cli.get("spec").empty() && !spec_flag_given)) {
      const std::string file =
          !cli.get("sweep").empty() ? cli.get("sweep") : cli.get("spec");
      const std::optional<std::string> bytes = util::read_file_bytes(file);
      BSLD_REQUIRE(bytes.has_value(), "bsldsim: cannot read " + file);
      body = *bytes;
    } else {
      body = spec_from_flags(cli).to_config().to_string();
    }
    if (!body.empty() && body.back() != '\n') body += '\n';
    request = "run " + format + "\n" + body + "end\n";
  }
  stream.write_all(request);

  const std::optional<std::string> header_line = stream.read_line();
  BSLD_REQUIRE(header_line.has_value(),
               "bsldsim: server closed the connection without replying");
  const server::ReplyHeader header =
      server::parse_reply_header(*header_line);
  if (!header.ok) {
    std::cerr << "bsldsim: server: " << header.error << '\n';
    return 1;
  }
  const std::string payload = stream.read_bytes(header.payload_bytes);
  const std::optional<std::string> frame_end = stream.read_line();
  BSLD_REQUIRE(frame_end.has_value() && *frame_end == "end",
               "bsldsim: truncated reply frame from server");

  std::cout << payload << std::flush;
  std::cerr << "bsldsim: server reply:";
  for (const auto& [key, value] : header.attrs) {
    std::cerr << ' ' << key << '=' << value;
  }
  std::cerr << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli("bsldsim", "config-driven power-aware scheduling simulation");
  cli.add_flag("spec", "", "run-spec file; other flags override its values");
  cli.add_flag("save-spec", "",
               "write the effective spec to this file and continue");
  for (const SpecFlag& flag : kSpecFlags) {
    cli.add_flag(flag.name, flag.fallback, flag.help);
  }
  cli.add_flag("out", "", "write per-job outcomes to this CSV file");
  cli.add_flag("instruments-out", "",
               "write each instrument's CSV to <dir>/<name>.csv instead of "
               "printing a summary");
  cli.add_flag("format", "table",
               "result output format: table, csv, or jsonl");
  cli.add_flag("list-policies", "false",
               "print the policy/assigner registry contents and exit");
  cli.add_flag("list-instruments", "false",
               "print the instrument registry contents and exit");
  cli.add_flag("list-pms", "false",
               "print the power-manager registry contents and exit");
  cli.add_flag("sweep", "",
               "sweep grid file (RunSpec config + sweep.* axes); runs the "
               "whole grid and emits results in grid order");
  cli.add_flag("threads", "0",
               "sweep worker threads (0 = hardware concurrency)");
  cli.add_flag("cache", "false",
               "persist/reuse results in the default cache directory "
               "($BSLD_CACHE_DIR, else ~/.cache/bsldsim)");
  cli.add_flag("cache-dir", "",
               "persist/reuse results in this cache directory (implies "
               "--cache)");
  cli.add_flag("cache-stats", "false",
               "print the result store's contents and exit");
  cli.add_flag("cache-clear", "false",
               "remove every cached result (all epochs) and exit");
  cli.add_flag("cache-trim-mb", "-1",
               "evict oldest cached results until the store is at most this "
               "many MiB, then exit");
  cli.add_flag("absorb-cache", "",
               "comma-separated cache directories to copy entries from "
               "(sharded-sweep merge), then exit");
  cli.add_flag("shard-index", "0",
               "with --sweep: this process's shard (0-based)");
  cli.add_flag("shard-count", "1",
               "with --sweep: total shards; specs are partitioned by the "
               "stable hash of their key");
  cli.add_flag("merge-shards", "",
               "comma-separated shard output files (CSV or JSONL, as "
               "written by --sweep); prints the merged serial result set "
               "and exits");
  cli.add_flag("socket", "",
               "Unix-domain socket path of the daemon (serve/query "
               "subcommands)");
  cli.add_flag("ping", "false", "with query: liveness probe");
  cli.add_flag("server-stats", "false",
               "with query: print the daemon's cache/store counters");
  cli.add_flag("stop-server", "false",
               "with query: ask the daemon to drain and exit");
  if (!cli.parse(argc, argv)) return 0;

  // Subcommands: `bsldsim serve ...` / `bsldsim query ...`.
  if (!cli.positional().empty()) {
    BSLD_REQUIRE(cli.positional().size() == 1,
                 "bsldsim: expected at most one subcommand, got " +
                     std::to_string(cli.positional().size()));
    const std::string& command = cli.positional()[0];
    if (command == "serve") return run_serve(cli);
    if (command == "query") return run_query(cli);
    BSLD_REQUIRE(false, "bsldsim: unknown subcommand `" + command +
                            "` (expected serve or query)");
  }

  if (cli.get_bool("list-policies")) {
    const core::PolicyRegistry& registry = core::PolicyRegistry::global();
    print_registry("policies", registry.policy_entries());
    print_registry("assigners", registry.assigner_entries());
    return 0;
  }
  if (cli.get_bool("list-instruments")) {
    print_registry("instruments", sim::InstrumentRegistry::global().entries());
    return 0;
  }
  if (cli.get_bool("list-pms")) {
    print_registry("power managers",
                   pm::PowerManagerRegistry::global().entries());
    return 0;
  }

  if (!cli.get("merge-shards").empty()) {
    return merge_shards(cli.get("merge-shards"));
  }
  if (cli.get_bool("cache-stats") || cli.get_bool("cache-clear") ||
      cli.get_int("cache-trim-mb") >= 0 || !cli.get("absorb-cache").empty()) {
    return run_cache_maintenance(cli);
  }

  const std::string format = cli.get("format");
  BSLD_REQUIRE(format == "table" || format == "csv" || format == "jsonl",
               "bsldsim: --format must be table, csv, or jsonl");

  if (!cli.get("sweep").empty()) return run_sweep(cli, format);

  const report::RunSpec spec = spec_from_flags(cli);

  // Machine-readable formats keep stdout pure; notices go to stderr.
  std::ostream& notice = format == "table" ? std::cout : std::cerr;

  if (!cli.get("save-spec").empty()) {
    std::ofstream file(cli.get("save-spec"));
    file << spec.to_config().to_string();
    notice << "Spec written to " << cli.get("save-spec") << '\n';
  }

  // Single runs go through the cache too when one is selected: a repeated
  // run replays instead of simulating.
  std::unique_ptr<report::ResultCache> cache = open_cache(cli);
  std::optional<report::RunResult> cached;
  if (cache) cached = cache->lookup(spec);
  const report::RunResult run = cached ? std::move(*cached)
                                       : report::run_one(spec);
  if (cache) {
    if (cached) {
      notice << "cache hit (" << cache->root().string() << ")\n";
    } else {
      cache->store(run);
      notice << "cache miss, stored (" << cache->root().string() << ")\n";
    }
  }
  const sim::SimulationResult& result = run.sim();

  if (format == "csv") {
    report::CsvResultSink sink(std::cout);
    sink.on_result(0, run);
  } else if (format == "jsonl") {
    report::JsonlResultSink sink(std::cout);
    sink.on_result(0, run);
  } else {
    std::cout << "bsldsim — " << spec.label() << " (" << result.job_count
              << " jobs) on " << result.cpus << " CPUs, policy "
              << result.policy << "\n\n";
    util::Table table({"Metric", "Value"});
    table.set_align(1, util::Align::kRight);
    table.add_row({"Average BSLD", util::fmt_double(result.avg_bsld, 2)});
    table.add_row({"Average wait (s)", util::fmt_double(result.avg_wait, 0)});
    table.add_row({"Makespan (s)", std::to_string(result.makespan)});
    table.add_row({"Utilization", util::fmt_double(result.utilization, 3)});
    table.add_row({"Jobs at reduced frequency", std::to_string(result.reduced_jobs)});
    table.add_row({"Jobs boosted mid-flight", std::to_string(result.boosted_jobs)});
    table.add_row({"Energy, idle=0 (GJ)",
                   util::fmt_double(result.energy.computational_joules / 1e9, 3)});
    table.add_row({"Energy, idle=low (GJ)",
                   util::fmt_double(result.energy.total_joules / 1e9, 3)});
    table.add_row({"Events processed", std::to_string(result.events_processed)});
    table.add_row({"Peak live jobs", std::to_string(result.peak_live_jobs)});
    std::cout << table;

    std::cout << "\nJobs per gear:";
    for (std::size_t g = 0; g < result.jobs_per_gear.size(); ++g) {
      std::cout << "  " << spec.gears[static_cast<GearIndex>(g)].frequency_ghz
                << "GHz:" << result.jobs_per_gear[g];
    }
    std::cout << '\n';
  }

  for (const auto& instrument : run.instruments) {
    if (!cli.get("instruments-out").empty()) {
      const std::string path =
          cli.get("instruments-out") + "/" + instrument->name() + ".csv";
      std::ofstream file(path);
      BSLD_REQUIRE(file.good(), "bsldsim: cannot write " + path);
      instrument->write_csv(file);
      notice << "Instrument " << instrument->name() << " written to " << path
             << '\n';
    } else {
      notice << "Instrument " << instrument->name() << ": "
             << instrument->rows()
             << " rows captured (use --instruments-out DIR for the CSV)\n";
    }
  }

  if (!cli.get("out").empty()) {
    BSLD_REQUIRE(spec.retain_jobs,
                 "bsldsim: --out needs per-job outcomes; drop "
                 "--retain-jobs=false");
    std::ofstream file(cli.get("out"));
    util::CsvWriter csv(file);
    csv.write_row({"id", "submit", "start", "end", "size", "gear_ghz",
                   "final_gear_ghz", "wait_s", "bsld"});
    for (const sim::JobOutcome& job : result.jobs) {
      csv.write_row({std::to_string(job.id), std::to_string(job.submit),
                     std::to_string(job.start), std::to_string(job.end),
                     std::to_string(job.size),
                     util::fmt_double(spec.gears[job.gear].frequency_ghz, 1),
                     util::fmt_double(spec.gears[job.final_gear].frequency_ghz, 1),
                     std::to_string(job.wait()),
                     util::fmt_double(job.bsld, 3)});
    }
    notice << "Per-job outcomes written to " << cli.get("out") << '\n';
  }
  return 0;
} catch (const std::exception& error) {
  std::cerr << "bsldsim: " << error.what() << '\n';
  return 1;
}
