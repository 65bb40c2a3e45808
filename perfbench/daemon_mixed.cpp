// daemon-mixed: a real `bsldsim serve` (2 workers, a cache filled during
// set-up) driven as a closed loop by 2 connections. About 9 of 10 requests
// hit the store (CTC/SDSC/SDSCBlue 1000-job specs stored in set-up); the
// rest miss (specs never requested before: two in three with pm = none, one
// in three under a binding cap-uniform cap), so the store serves reads
// beside writes. Hits exercise the protocol, expand/key,
// ResultCache::lookup and sink rendering; misses add simulation, pm hooks
// and cache writes.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "report/grid.hpp"
#include "report/result_cache.hpp"
#include "report/sweep.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/sweep_service.hpp"
#include "util/socket.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace report = bsld::report;
namespace server = bsld::server;
namespace wl = bsld::wl;
namespace fs = std::filesystem;

/// Set-ups per run (a fresh daemon each); setup_s is their median.
constexpr int kSetups = 5;

constexpr unsigned kWorkers = 2;
constexpr int kConnections = 2;
constexpr std::int64_t kJobsPerSpec = 1000;
/// Binding on CTC (430 CPUs): the cap BM_PowerCapSweep runs under.
constexpr double kCapWatts = 4000.0;
/// Traces in each miss pool (uncapped, and capped candidates).
constexpr std::uint64_t kPoolTraces = 48;
const std::array<wl::Archive, 3> kArchives = {
    wl::Archive::kCTC, wl::Archive::kSDSC, wl::Archive::kSDSCBlue};

/// The stored set: per archive (canonical trace), BSLD {1.5, 2, 3} x
/// WQ {0, 16} plus the no-DVFS baseline. It is the same for every seed: the
/// daemon's resident memory follows the largest run it has served, and a
/// seed-drawn stored set would make that an accident of three traces.
std::vector<report::RunSpec> hit_specs() {
  std::vector<report::RunSpec> specs;
  for (const wl::Archive archive : kArchives) {
    report::RunSpec base;
    base.workload =
        wl::WorkloadSource::from_archive(archive, kJobsPerSpec, 0);
    specs.push_back(base);
    for (const double bsld : {1.5, 2.0, 3.0}) {
      for (const std::int64_t wq : {0, 16}) {
        report::RunSpec spec = base;
        bsld::core::DvfsConfig dvfs;
        dvfs.bsld_threshold = bsld;
        dvfs.wq_threshold = wq;
        spec.policy.dvfs = dvfs;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

/// A miss spec of `archive` on trace `j` of the canonical miss pool.
report::RunSpec miss_base(wl::Archive archive, std::uint64_t j) {
  report::RunSpec spec;
  spec.workload = wl::WorkloadSource::from_archive(archive, kJobsPerSpec,
                                                   derive_seed(0, 2000000 + j));
  bsld::core::DvfsConfig dvfs;
  dvfs.bsld_threshold = 2.0;
  dvfs.wq_threshold = 16;
  spec.policy.dvfs = dvfs;
  return spec;
}

/// The traces misses draw from. They are the same for every seed: a miss
/// costs what its trace costs, and fresh traces per seed made miss_p50_ms
/// swing between seeds with the luck of the draw. Each miss is still a spec
/// never requested before, through its own sample.seed (read by no attached
/// instrument, so only the cache key moves).
struct MissPool {
  std::vector<report::RunSpec> uncapped;  ///< CTC, SDSC, SDSCBlue in turn.
  std::vector<report::RunSpec> capped;    ///< CTC under the binding cap.
};

/// Some CTC traces make a cap-uniform run abort inside the simulator
/// ("unknown job id"), which would count as a failed request; the capped
/// pool keeps only the candidates that run cleanly in process.
MissPool miss_pool() {
  MissPool pool;
  for (std::uint64_t j = 0; j < kPoolTraces; ++j) {
    pool.uncapped.push_back(miss_base(kArchives[j % kArchives.size()], j));
  }
  for (std::uint64_t j = 0; j < kPoolTraces; ++j) {
    report::RunSpec spec = miss_base(wl::Archive::kCTC, kPoolTraces + j);
    spec.pm.name = "cap-uniform";
    spec.pm.cap_watts = kCapWatts;
    try {
      (void)report::run_one(spec);
      pool.capped.push_back(spec);
    } catch (const std::exception&) {
    }
  }
  note("daemon-mixed: " + std::to_string(pool.capped.size()) + " of " +
       std::to_string(kPoolTraces) +
       " capped CTC traces run cleanly in process");
  if (pool.capped.empty()) {
    throw std::runtime_error("no capped trace runs cleanly");
  }
  return pool;
}

/// Miss number `m` of the request sequence. One in three runs capped, the
/// slower mode: at that share miss_p50_ms lies inside the uncapped mode
/// instead of in the gap between the two.
report::RunSpec miss_spec(std::uint64_t seed, std::uint64_t m,
                          const MissPool& pool) {
  const std::uint64_t round = m / 3;
  report::RunSpec spec =
      m % 3 == 2 ? pool.capped[round % pool.capped.size()]
                 : pool.uncapped[(2 * round + m % 3) % pool.uncapped.size()];
  spec.sample.seed = derive_seed(seed, 3000000 + m);
  return spec;
}

std::string run_request(const report::RunSpec& spec) {
  return "run csv\n" + spec.to_config().to_string() + "end\n";
}

struct Reply {
  bool ok = false;
  std::string payload;
};

Reply round_trip(bsld::util::SocketStream& stream, const std::string& request) {
  stream.write_all(request);
  const std::optional<std::string> header_line = stream.read_line();
  if (!header_line) return {};
  const server::ReplyHeader header = server::parse_reply_header(*header_line);
  if (!header.ok) return {};
  Reply reply{true, stream.read_bytes(header.payload_bytes)};
  const std::optional<std::string> end = stream.read_line();
  reply.ok = end.has_value() && *end == "end";
  return reply;
}

/// The released binary, serving until stopped; SIGTERM drains it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket,
         const std::string& cache_dir, const std::string& log) {
    const std::string threads = std::to_string(kWorkers);
    std::vector<std::string> argv_s = {binary,      "serve",  "--socket",
                                       socket,      "--cache-dir", cache_dir,
                                       "--threads", threads};
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int rc =
        posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(),
                    environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + binary);
    wait_ready(socket);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  void wait_ready(const std::string& socket) {
    for (int i = 0; i < 2000; ++i) {
      try {
        bsld::util::SocketStream stream =
            bsld::util::SocketStream::connect_unix(socket);
        if (round_trip(stream, "ping\n").ok) return;
      } catch (const std::exception&) {
      }
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("bsldsim serve exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    throw std::runtime_error("bsldsim serve did not become ready");
  }

  pid_t pid_ = -1;
};

/// One request of the fixed seeded sequence.
struct Planned {
  bool miss = false;
  std::size_t hit = 0;      ///< Index into the stored set.
  std::uint64_t miss_n = 0;  ///< Misses before this one in the sequence.
};

/// The fixed seeded request sequence, shared by the connections: request k
/// misses when its draw says so (1 in 10); misses are numbered in sequence
/// order.
class Sequence {
 public:
  Sequence(std::uint64_t seed, std::size_t hits) : seed_(seed), hits_(hits) {}

  Planned next() {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t draw = derive_seed(seed_, k_++);
    Planned p;
    p.miss = draw % 10 == 0;
    p.hit = static_cast<std::size_t>((draw >> 8) % hits_);
    if (p.miss) p.miss_n = misses_++;
    return p;
  }

 private:
  std::mutex mutex_;
  std::uint64_t seed_;
  std::size_t hits_;
  std::uint64_t k_ = 0;
  std::uint64_t misses_ = 0;
};

struct Sample {
  bool miss = false;
  bool ok = false;
  double rtt_ms = 0.0;
  std::uint64_t miss_n = 0;
  std::string payload;  ///< Kept for misses; verified after the loop.
};

/// The closed loop: kConnections clients, each sending its next request
/// only after the previous reply, until `seconds` have passed.
struct Loop {
  std::vector<Sample> samples;
  double wall_s = 0.0;
};

Loop closed_loop(const std::string& socket, std::uint64_t seed,
                 double seconds, const std::vector<report::RunSpec>& hits,
                 const std::vector<std::string>& hit_payloads,
                 const std::function<report::RunSpec(std::uint64_t)>& miss,
                 bool spans) {
  std::vector<std::string> hit_requests;
  for (const report::RunSpec& spec : hits) {
    hit_requests.push_back(run_request(spec));
  }
  Sequence sequence(seed, hits.size());
  std::vector<std::vector<Sample>> per_client(kConnections);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        std::optional<bsld::util::SocketStream> stream;
        try {
          stream.emplace(bsld::util::SocketStream::connect_unix(socket));
        } catch (const std::exception&) {
        }
        while (seconds_since(start) < seconds) {
          const Planned p = sequence.next();
          const std::string request =
              p.miss ? run_request(miss(p.miss_n)) : hit_requests[p.hit];
          const Clock::time_point t0 = Clock::now();
          Reply reply;
          try {
            std::optional<trace::Span> span;
            if (spans) span.emplace(trace::Kind::kRequest);
            if (!stream) {  // reconnect after a failed request.
              stream.emplace(bsld::util::SocketStream::connect_unix(socket));
            }
            reply = round_trip(*stream, request);
          } catch (const std::exception&) {
            stream.reset();
          }
          Sample s;
          s.rtt_ms = seconds_since(t0) * 1e3;
          s.miss = p.miss;
          s.miss_n = p.miss_n;
          s.ok = reply.ok && (p.miss || reply.payload == hit_payloads[p.hit]);
          if (p.miss) s.payload = std::move(reply.payload);
          per_client[c].push_back(std::move(s));
        }
      });
    }
  }
  Loop loop;
  loop.wall_s = seconds_since(start);
  for (auto& samples : per_client) {
    for (Sample& s : samples) loop.samples.push_back(std::move(s));
  }
  return loop;
}

/// In-process CsvResultSink renders of `specs` (a one-spec reply each).
std::vector<std::string> expected_payloads(
    const std::vector<report::RunSpec>& specs) {
  report::SweepRunner::Options options;
  options.threads = kWorkers;
  report::SweepRunner runner(options);
  const std::vector<report::RunResult> results = runner.run(specs);
  std::vector<std::string> out;
  for (const report::RunResult& result : results) {
    out.push_back(render_csv({result}));
  }
  return out;
}

/// Fills the store through the daemon: every stored spec once, split
/// across the connections. Returns false when any request failed.
bool fill(const std::string& socket, const std::vector<report::RunSpec>& hits) {
  std::atomic<bool> ok{true};
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        try {
          bsld::util::SocketStream stream =
              bsld::util::SocketStream::connect_unix(socket);
          for (std::size_t i = c; i < hits.size(); i += kConnections) {
            if (!round_trip(stream, run_request(hits[i])).ok) ok = false;
          }
        } catch (const std::exception&) {
          ok = false;
        }
      });
    }
  }
  return ok;
}

/// Checks every sample: hits were compared in the loop, misses are
/// compared here against the in-process render of the same spec.
void verify(Loop& loop,
            const std::function<report::RunSpec(std::uint64_t)>& miss,
            Outcome& outcome) {
  std::vector<report::RunSpec> specs;
  std::vector<Sample*> misses;
  for (Sample& s : loop.samples) {
    if (s.miss && s.ok) {
      specs.push_back(miss(s.miss_n));
      misses.push_back(&s);
    }
  }
  const std::vector<std::string> expected = expected_payloads(specs);
  for (std::size_t i = 0; i < misses.size(); ++i) {
    misses[i]->ok = misses[i]->payload == expected[i];
  }
  for (const Sample& s : loop.samples) {
    ++outcome.attempted;
    if (!s.ok) ++outcome.failed;
  }
}

void add_latency_metrics(const Loop& loop, Outcome& outcome) {
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::int64_t jobs = 0;
  for (const Sample& s : loop.samples) {
    (s.miss ? miss_ms : hit_ms).push_back(s.rtt_ms);
    if (s.miss) jobs += kJobsPerSpec;
  }
  outcome.add("jobs_per_s", static_cast<double>(jobs) / loop.wall_s, "1/s");
  add_request_metrics(outcome, hit_ms, miss_ms, loop.wall_s);
}

/// The traced run: server::Server hosted in this process, so the traced
/// registry wrappers see its simulations. Half the time runs plain specs,
/// half traced ones; then the hit path's seams are timed directly.
void traced_run(const Args& args, const fs::path& dir,
                const std::vector<report::RunSpec>& hits, Outcome& outcome) {
  trace::register_wrappers();
  std::vector<report::RunSpec> traced_hits;
  for (const report::RunSpec& spec : hits) {
    traced_hits.push_back(trace::traced(spec));
  }
  const std::vector<std::string> plain_payloads = expected_payloads(hits);
  const std::vector<std::string> traced_payloads =
      expected_payloads(traced_hits);
  const MissPool pool = miss_pool();
  const auto plain_miss = [&](std::uint64_t n) {
    return miss_spec(args.seed, n, pool);
  };
  const auto traced_miss = [&](std::uint64_t n) {
    return trace::traced(miss_spec(args.seed, n, pool));
  };

  const fs::path cache_dir = dir / "cache-traced";
  report::ResultCache cache(cache_dir);
  const std::string socket = (dir / "t.sock").string();
  server::Server host(server::Server::Options{socket, kWorkers, &cache});
  std::jthread serving([&host] { (void)host.serve(); });
  if (!fill(socket, hits) || !fill(socket, traced_hits)) {
    outcome.correct = false;
  }

  Loop plain = closed_loop(socket, args.seed, args.seconds / 2.0, hits,
                           plain_payloads, plain_miss, false);
  trace::reset();
  const report::ResultCache::Counters before = cache.counters();
  Loop traced = closed_loop(socket, derive_seed(args.seed, 7),
                            args.seconds / 2.0, traced_hits, traced_payloads,
                            traced_miss, true);
  const report::ResultCache::Counters after = cache.counters();
  const auto requests = static_cast<double>(traced.samples.size());

  // Direct timings of the hit path's seams on the stored set, and of the
  // store on miss results (plain specs: no wrapper spans).
  server::SweepService service(
      server::SweepService::Options{kWorkers, &cache});
  std::vector<double> service_ms;
  for (int rep = 0; rep < 20; ++rep) {
    for (const report::RunSpec& spec : traced_hits) {
      server::Request request;
      request.kind = server::Request::Kind::kRun;
      request.config = spec.to_config();
      {
        const trace::Span span(trace::Kind::kExpand);
        for (const report::RunSpec& s : report::expand_grid(request.config)) {
          (void)s.key();
        }
      }
      std::optional<report::RunResult> hit;
      {
        const trace::Span span(trace::Kind::kCacheLookup);
        hit = cache.lookup(spec);
      }
      if (hit) {
        const trace::Span span(trace::Kind::kRender);
        (void)render_csv({*hit});
      }
      const Clock::time_point t0 = Clock::now();
      {
        const trace::Span span(trace::Kind::kService);
        (void)service.run(request);
      }
      service_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  {
    const fs::path probe_dir = dir / "probe";
    report::ResultCache probe(probe_dir);
    for (int i = 0; i < 20; ++i) {
      const report::RunResult result = report::run_one(plain_miss(i));
      const trace::Span span(trace::Kind::kCacheStore);
      probe.store(result);
    }
  }
  add_span_metrics(outcome, requests);
  std::vector<double> hit_rtt;
  std::int64_t errors = 0;
  for (const Sample& s : traced.samples) {
    if (!s.miss) hit_rtt.push_back(s.rtt_ms);
    if (!s.ok && !s.miss) ++errors;
  }
  const double service_hit = median(service_ms);
  outcome.add("server.service_hit_ms", service_hit, "ms");
  outcome.add("server.rtt_overhead_ms", median(hit_rtt) - service_hit, "ms");
  outcome.add("server.requests", requests, "count");
  const double lookups = static_cast<double>(
      (after.hits + after.misses) - (before.hits + before.misses));
  outcome.add("report.cache_lookups", lookups, "count");
  outcome.add("report.cache_hit_ratio",
              lookups == 0.0 ? 0.0 : (after.hits - before.hits) / lookups,
              "ratio");
  outcome.add("report.cache_stores",
              static_cast<double>(after.stores - before.stores), "count");
  add_overhead(outcome,
               plain.wall_s / static_cast<double>(plain.samples.size()),
               traced.wall_s / requests);
  dump_trace(args);

  host.stop();
  serving.join();

  verify(plain, plain_miss, outcome);
  verify(traced, traced_miss, outcome);
  for (const Sample& s : traced.samples) {
    if (!s.ok && s.miss) ++errors;
  }
  outcome.add("server.errors", static_cast<double>(errors), "count");
}

}  // namespace

int daemon_mixed(const Args& args, Outcome& outcome) {
  const fs::path dir = fs::path(args.workdir) / "daemon-mixed";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<report::RunSpec> hits = hit_specs();
  note("daemon-mixed: " + std::to_string(hits.size()) + " stored specs, " +
       std::to_string(kJobsPerSpec) + " jobs each; ~1 in 10 requests misses; " +
       std::to_string(kConnections) + " connections, " +
       std::to_string(kWorkers) + " daemon workers");

  if (args.trace) {
    traced_run(args, dir, hits, outcome);
    fs::remove_all(dir);
    return 0;
  }

  const std::vector<std::string> hit_payloads = expected_payloads(hits);
  const MissPool pool = miss_pool();
  const std::string socket = (dir / "d.sock").string();
  const std::string log = (dir / "daemon.log").string();
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    if (daemon) daemon->stop();
    const fs::path cache_dir = dir / ("cache-" + std::to_string(i));
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(args.bsldsim, socket, cache_dir.string(),
                                      log);
    if (!fill(socket, hits)) outcome.correct = false;
    setups.push_back(seconds_since(t0));
  }

  const auto miss = [&](std::uint64_t n) {
    return miss_spec(args.seed, n, pool);
  };
  reset_peak_rss(daemon->pid());
  Loop loop = closed_loop(socket, args.seed, args.seconds, hits, hit_payloads,
                          miss, false);
  const double rss = peak_rss_mb(daemon->pid());
  daemon->stop();

  outcome.add("setup_s", median(setups), "s");
  outcome.add("wall_s", loop.wall_s, "s");
  outcome.add("peak_rss_mb", rss, "MiB");
  add_latency_metrics(loop, outcome);
  verify(loop, miss, outcome);
  fs::remove_all(dir);
  return 0;
}

}  // namespace perfbench
