/// \file source.hpp
/// \brief Open workload sources: where a trace comes from, declaratively.
///
/// Every experiment in this library consumes a wl::Workload; a
/// WorkloadSource describes *how to obtain one* — and unlike the closed
/// Archive enum, it is open to the outside world:
///
///  * kArchive — one of the five calibrated synthetic archive models
///    (archives.hpp), optionally re-seeded;
///  * kSwf     — a Standard Workload Format file on disk, loaded, cleaned
///    and sliced through the same pipeline the paper's "cleaned logs" went
///    through;
///  * kInline  — an arbitrary generator profile (synthetic.hpp) plus a
///    seed, for workloads no archive models.
///
/// open_stream() is the single acquisition point: it yields a pull-based
/// JobStream (stream.hpp) so SWF cleaning and slicing logic lives in
/// exactly one place and million-job traces never need to be materialized.
/// load_source() is its drain — open_stream() + materialize() — kept for
/// every consumer that wants random access; both paths produce identical
/// bytes by construction. Sources serialize to util::Config (`workload.*`
/// keys, bind_config) as part of report::RunSpec's round-trippable form.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/config.hpp"
#include "workload/archives.hpp"
#include "workload/cleaner.hpp"
#include "workload/stream.hpp"
#include "workload/synthetic.hpp"

namespace bsld::wl {

/// Declarative description of where a workload comes from.
struct WorkloadSource {
  enum class Kind { kArchive, kSwf, kInline };

  Kind kind = Kind::kArchive;
  /// kArchive: which calibrated model.
  Archive archive = Archive::kCTC;
  /// kSwf: path to the trace file.
  std::string path;
  /// kInline: the generator profile (its num_jobs yields to `jobs` > 0).
  WorkloadSpec spec;
  /// Trace length in jobs. For kSwf, 0 means the whole file; for the
  /// generated kinds it must be positive (falls back to spec.num_jobs for
  /// kInline when 0). 64-bit: streaming sources scale past the old int32
  /// trace-length ceiling.
  std::int64_t jobs = 5000;
  /// Generator seed; 0 means the archive's canonical seed (kArchive) or
  /// the literal seed 0 (kInline). Ignored for kSwf.
  std::uint64_t seed = 0;
  /// kSwf: machine size override; 0 uses the trace's MaxProcs directive
  /// (fallback 1024). Ignored for the generated kinds.
  std::int32_t cpus = 0;

  static WorkloadSource from_archive(Archive archive, std::int64_t jobs = 5000,
                                     std::uint64_t seed = 0);
  static WorkloadSource from_swf(std::string path, std::int64_t jobs = 0,
                                 std::int32_t cpus = 0);
  static WorkloadSource from_spec(WorkloadSpec spec, std::uint64_t seed = 0);

  friend bool operator==(const WorkloadSource&, const WorkloadSource&) =
      default;
};

/// Opens the source as a pull-based stream in strict (submit, id) order —
/// the lazy counterpart of load_source(), identical bytes guaranteed.
/// Generated kinds (kArchive, kInline) stream straight from the arrival
/// process in O(1) memory. kSwf streams the file through an incremental
/// parse → bounded sort → clean pipeline; when `source.jobs` truncates the
/// trace, a counting pre-pass over the file determines the slice length and
/// submit rebase up front (O(file) time, O(1) memory), so the emitted jobs
/// match the materialized parse → sort → clean → slice pipeline exactly.
/// MaxProcs is resolved from the header block preceding the first data
/// record (where the SWF convention puts it).
///
/// `clean_report`, when non-null, is written by the time the stream is
/// exhausted (for truncated kSwf sources: already at open; counters always
/// cover the whole file, as in load_source()). Throws bsld::Error on
/// unreadable files or invalid generator parameters.
std::unique_ptr<JobStream> open_stream(const WorkloadSource& source,
                                       CleanReport* clean_report = nullptr);

/// Materializes the source: open_stream() drained into a Workload.
/// Deterministic: equal sources yield identical workloads. For kSwf the
/// trace is loaded, cleaned (invalid records dropped, sizes clamped to the
/// machine) and sliced to `jobs`; the cleaning outcome is written to
/// `*clean_report` when non-null (generated kinds report all jobs kept).
/// Throws bsld::Error on unreadable files or invalid generator parameters.
Workload load_source(const WorkloadSource& source,
                     CleanReport* clean_report = nullptr);

/// Short display name: archive name, SWF path, or the inline spec's name.
std::string source_label(const WorkloadSource& source);

/// Effective seed of the source: the canonical archive seed or the explicit
/// override for generated kinds, a path hash for SWF files. Experiments
/// derive auxiliary randomness (e.g. per-job beta sampling) from this so
/// equal sources stay bit-identical.
std::uint64_t source_seed(const WorkloadSource& source);

/// CLI convenience: a string naming an archive model resolves to kArchive
/// (jobs = 0, "whole file", becomes the paper's 5000-job slice), anything
/// else is treated as an SWF file path.
WorkloadSource resolve_source(const std::string& name_or_path,
                              std::int64_t jobs = 5000, std::uint64_t seed = 0);

/// The `workload.*` keys (util::ConfigCodec): kind, jobs and seed, then the
/// keys its kind needs. Reading, an absent `workload.jobs` takes the kind's
/// default (5000 for archives, 0 otherwise); a negative `workload.jobs`,
/// an unknown kind or archive or an swf source without `workload.path` is
/// a bsld::Error.
void bind_config(util::ConfigCodec& codec, WorkloadSource& source);

/// The `workload.spec.*` keys of an inline generator profile. The runtime
/// mixture is three parallel lists (weights/mus/sigmas); `cpus` and the
/// size bounds are checked int32.
void bind_config(util::ConfigCodec& codec, WorkloadSpec& spec);

}  // namespace bsld::wl
