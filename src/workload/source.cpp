#include "workload/source.hpp"

#include <algorithm>
#include <fstream>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "workload/swf.hpp"

namespace bsld::wl {

namespace {

/// Reorder window for streaming SWF files. Archives are sorted by submit
/// time by convention; the window absorbs local jitter (ties resolved by
/// logging order, clock skews) while keeping memory bounded. A record out
/// of order by more than this many positions makes SortingJobStream throw.
constexpr std::size_t kSwfSortWindow = std::size_t{1} << 16;

/// JobStream facade over an SwfRecordStream owned by the enclosing
/// SwfSourceStream (which also owns the file handle). Optionally replays
/// one record that was pulled ahead to resolve MaxProcs.
class RecordAdapter final : public JobStream {
 public:
  RecordAdapter(SwfRecordStream* records, const std::string* name,
                std::int32_t cpus, std::optional<Job> pending)
      : records_(records), name_(name), cpus_(cpus),
        pending_(std::move(pending)) {}

  std::optional<Job> next() override {
    if (pending_) {
      std::optional<Job> job = std::move(pending_);
      pending_.reset();
      return job;
    }
    return records_->next();
  }
  [[nodiscard]] const std::string& name() const override { return *name_; }
  [[nodiscard]] std::int32_t cpus() const override { return cpus_; }

 private:
  SwfRecordStream* records_;
  const std::string* name_;
  std::int32_t cpus_ = 0;
  std::optional<Job> pending_;
};

/// Streaming kSwf pipeline: file → incremental parse → bounded (submit, id)
/// sort → incremental clean → truncate/rebase. Matches a materialized
/// parse → stable_sort → clean → slice of the whole file byte for byte:
/// every cleaning rule is per-record (JobCleaner), so cleaning commutes
/// with the sort, and the truncation/rebase decision is made from a
/// counting pre-pass over the whole file exactly when `source.jobs` would
/// have sliced the materialized trace.
class SwfSourceStream final : public JobStream {
 public:
  SwfSourceStream(const WorkloadSource& source, CleanReport* clean_report)
      : name_(source.path), limit_(source.jobs),
        report_out_(clean_report) {
    if (limit_ > 0) {
      // Counting pre-pass: whole-file clean counters (the report the
      // materialized path computes before slicing), the full header, and
      // the kept-record total that decides truncation + rebase. O(1)
      // memory — nothing is retained but counters.
      std::ifstream in(name_);
      BSLD_REQUIRE(in.good(), "SWF: cannot open file `" + name_ + "`");
      SwfRecordStream records(in);
      std::optional<Job> first = records.next();
      cpus_ = source.cpus > 0 ? source.cpus : records.max_procs(1024);
      JobCleaner counter(clean_options());
      while (first) {
        counter.accept(std::move(*first));
        first = records.next();
      }
      warn_skipped(records.skipped_lines());
      total_kept_ = static_cast<std::int64_t>(counter.report().kept);
      rebase_ = total_kept_ > limit_;
      if (report_out_) *report_out_ = counter.report();
      open_data_pass(source);
    } else {
      open_data_pass(source);
    }
  }

  std::optional<Job> next() override {
    if (done_) return std::nullopt;
    if (limit_ > 0 && emitted_ >= std::min(limit_, total_kept_)) {
      finish();
      return std::nullopt;
    }
    while (std::optional<Job> raw = sorter_->next()) {
      std::optional<Job> cleaned = cleaner_->accept(std::move(*raw));
      if (!cleaned) continue;
      Job job = *cleaned;
      if (rebase_) {
        if (emitted_ == 0) base_ = job.submit;
        job.submit -= base_;
      }
      ++emitted_;
      return job;
    }
    finish();
    return std::nullopt;
  }

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::int32_t cpus() const override { return cpus_; }
  [[nodiscard]] std::int64_t size_hint() const override {
    // Known exactly after a counting pre-pass; unknown for whole-file
    // streaming (cleaning drops records as they come).
    return limit_ > 0 ? std::min(limit_, total_kept_) : -1;
  }

 private:
  [[nodiscard]] CleanOptions clean_options() const {
    CleanOptions options;
    options.machine_cpus = cpus_;
    return options;
  }

  void warn_skipped(std::size_t skipped) const {
    if (skipped == 0) return;
    BSLD_LOG_WARN() << "SWF: " << name_ << ": skipped " << skipped
                    << " malformed/unusable record(s) (parse with "
                       "SwfOptions{.strict = true} to reject the file)";
  }

  /// Opens the emitting pass: parse in file order, pull one record ahead
  /// when MaxProcs is still unresolved, then sort within the bounded
  /// window and clean incrementally.
  void open_data_pass(const WorkloadSource& source) {
    file_.open(name_);
    BSLD_REQUIRE(file_.good(), "SWF: cannot open file `" + name_ + "`");
    records_.emplace(file_);
    std::optional<Job> pending;
    if (limit_ <= 0) {
      // No pre-pass ran: resolve MaxProcs from the header block before the
      // first data record (the SWF convention).
      pending = records_->next();
      cpus_ = source.cpus > 0 ? source.cpus : records_->max_procs(1024);
    }
    sorter_.emplace(
        std::make_unique<RecordAdapter>(&*records_, &name_, cpus_,
                                        std::move(pending)),
        kSwfSortWindow);
    cleaner_.emplace(clean_options());
  }

  void finish() {
    if (done_) return;
    done_ = true;
    if (limit_ <= 0) {
      // Whole-file streaming: counters and skip totals only complete now.
      warn_skipped(records_->skipped_lines());
      if (report_out_) *report_out_ = cleaner_->report();
    }
  }

  std::string name_;
  std::int64_t limit_ = 0;
  CleanReport* report_out_ = nullptr;
  std::int32_t cpus_ = 0;
  std::int64_t total_kept_ = 0;
  bool rebase_ = false;

  std::ifstream file_;
  std::optional<SwfRecordStream> records_;
  std::optional<SortingJobStream> sorter_;
  std::optional<JobCleaner> cleaner_;
  std::int64_t emitted_ = 0;
  Time base_ = 0;
  bool done_ = false;
};

}  // namespace

WorkloadSource WorkloadSource::from_archive(Archive archive, std::int64_t jobs,
                                            std::uint64_t seed) {
  WorkloadSource source;
  source.kind = Kind::kArchive;
  source.archive = archive;
  source.jobs = jobs;
  source.seed = seed;
  return source;
}

WorkloadSource WorkloadSource::from_swf(std::string path, std::int64_t jobs,
                                        std::int32_t cpus) {
  WorkloadSource source;
  source.kind = Kind::kSwf;
  source.path = std::move(path);
  source.jobs = jobs;
  source.cpus = cpus;
  return source;
}

WorkloadSource WorkloadSource::from_spec(WorkloadSpec spec,
                                         std::uint64_t seed) {
  WorkloadSource source;
  source.kind = Kind::kInline;
  source.spec = std::move(spec);
  source.jobs = 0;  // defer to spec.num_jobs
  source.seed = seed;
  return source;
}

std::unique_ptr<JobStream> open_stream(const WorkloadSource& source,
                                       CleanReport* clean_report) {
  auto generated = [&](WorkloadSpec spec,
                       std::uint64_t seed) -> std::unique_ptr<JobStream> {
    auto stream = std::make_unique<SyntheticJobStream>(std::move(spec), seed);
    if (clean_report) {
      // Generated traces need no cleaning; every job the stream will yield
      // counts as kept (spec validation already ran in the constructor).
      *clean_report = CleanReport{};
      clean_report->kept = static_cast<std::size_t>(stream->size_hint());
    }
    return stream;
  };
  switch (source.kind) {
    case WorkloadSource::Kind::kArchive: {
      BSLD_REQUIRE(source.jobs > 0,
                   "load_source(): archive sources need jobs > 0");
      const std::uint64_t seed =
          source.seed == 0 ? archive_seed(source.archive) : source.seed;
      return generated(archive_spec(source.archive, source.jobs), seed);
    }
    case WorkloadSource::Kind::kSwf:
      return std::make_unique<SwfSourceStream>(source, clean_report);
    case WorkloadSource::Kind::kInline: {
      WorkloadSpec spec = source.spec;
      if (source.jobs > 0) spec.num_jobs = source.jobs;
      return generated(std::move(spec), source.seed);
    }
  }
  throw Error("load_source(): invalid source kind");
}

Workload load_source(const WorkloadSource& source, CleanReport* clean_report) {
  const std::unique_ptr<JobStream> stream = open_stream(source, clean_report);
  return materialize(*stream);
}

std::string source_label(const WorkloadSource& source) {
  switch (source.kind) {
    case WorkloadSource::Kind::kArchive: return archive_name(source.archive);
    case WorkloadSource::Kind::kSwf: return source.path;
    case WorkloadSource::Kind::kInline: return source.spec.name;
  }
  return "?";
}

std::uint64_t source_seed(const WorkloadSource& source) {
  switch (source.kind) {
    case WorkloadSource::Kind::kArchive:
      return source.seed == 0 ? archive_seed(source.archive) : source.seed;
    case WorkloadSource::Kind::kSwf:
      // A platform-independent path hash, so SWF-derived auxiliary
      // randomness is reproducible across machines (std::hash is not).
      return util::fnv1a64(source.path) ^ source.seed;
    case WorkloadSource::Kind::kInline:
      return source.seed;
  }
  return 0;
}

WorkloadSource resolve_source(const std::string& name_or_path,
                              std::int64_t jobs, std::uint64_t seed) {
  for (const Archive archive : all_archives()) {
    if (archive_name(archive) == name_or_path) {
      // jobs = 0 means "whole file" for SWF sources but is meaningless for
      // a generator; fall back to the paper's slice length so switching a
      // whole-file spec to an archive name keeps working.
      return WorkloadSource::from_archive(archive, jobs == 0 ? 5000 : jobs,
                                          seed);
    }
  }
  WorkloadSource source = WorkloadSource::from_swf(name_or_path, jobs);
  source.seed = seed;
  return source;
}

void bind_config(util::ConfigCodec& codec, WorkloadSource& source) {
  using Kind = WorkloadSource::Kind;
  codec.choice("workload.source", source.kind,
               {{"archive", Kind::kArchive},
                {"swf", Kind::kSwf},
                {"inline", Kind::kInline}});
  // Kind-appropriate default, matching the factory functions: generated
  // archives default to the paper's 5000-job slices, SWF files to "whole
  // file" and inline specs to their own num_jobs (both jobs = 0).
  if (codec.reading()) {
    source.jobs = source.kind == Kind::kArchive ? 5000 : 0;
  }
  codec.field("workload.jobs", source.jobs);
  codec.check(source.jobs >= 0, "workload.jobs", "must be >= 0");
  codec.field("workload.seed", source.seed);
  switch (source.kind) {
    case Kind::kArchive: {
      std::string archive = archive_name(source.archive);
      codec.field("workload.archive", archive);
      if (codec.reading()) source.archive = archive_from_name(archive);
      break;
    }
    case Kind::kSwf:
      codec.field("workload.path", source.path);
      BSLD_REQUIRE(!codec.reading() || !source.path.empty(),
                   "WorkloadSource: swf source needs workload.path");
      codec.field("workload.cpus", source.cpus);
      break;
    case Kind::kInline:
      bind_config(codec, source.spec);
      break;
  }
}

void bind_config(util::ConfigCodec& codec, WorkloadSpec& spec) {
  codec.field("workload.spec.name", spec.name);
  codec.field("workload.spec.cpus", spec.cpus);
  codec.field("workload.spec.num_jobs", spec.num_jobs);

  ArrivalModel& a = spec.arrival;
  codec.field("workload.spec.arrival.load_target", a.load_target);
  codec.field("workload.spec.arrival.burst_probability", a.burst_probability);
  codec.field("workload.spec.arrival.burst_gap_mean", a.burst_gap_mean);
  codec.field("workload.spec.arrival.daily_amplitude", a.daily_amplitude);
  codec.field("workload.spec.arrival.peak_hour", a.peak_hour);

  SizeModel& s = spec.size;
  codec.field("workload.spec.size.p_sequential", s.p_sequential);
  codec.field("workload.spec.size.min_size", s.min_size);
  codec.field("workload.spec.size.max_size", s.max_size);
  codec.field("workload.spec.size.log2_mean", s.log2_mean);
  codec.field("workload.spec.size.log2_sigma", s.log2_sigma);
  codec.field("workload.spec.size.p_power_of_two", s.p_power_of_two);

  RuntimeModel& r = spec.runtime;
  codec.columns(
      {"workload.spec.runtime.weights", "workload.spec.runtime.mus",
       "workload.spec.runtime.sigmas"},
      r.classes, &RuntimeClass::weight, &RuntimeClass::mu,
      &RuntimeClass::sigma);
  codec.field("workload.spec.runtime.min_runtime", r.min_runtime);
  codec.field("workload.spec.runtime.max_runtime", r.max_runtime);

  EstimateModel& e = spec.estimate;
  codec.field("workload.spec.estimate.p_exact", e.p_exact);
  codec.field("workload.spec.estimate.factor_mu", e.factor_mu);
  codec.field("workload.spec.estimate.factor_sigma", e.factor_sigma);
  codec.field("workload.spec.estimate.round_to_nice", e.round_to_nice);
  codec.field("workload.spec.estimate.max_requested", e.max_requested);
}

}  // namespace bsld::wl
