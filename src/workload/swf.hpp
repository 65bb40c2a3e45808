/// \file swf.hpp
/// \brief Standard Workload Format (SWF) reader/writer.
///
/// SWF is the trace format of the Parallel Workload Archive the paper takes
/// its five logs from. Each data line has 18 whitespace-separated fields;
/// lines starting with `;` are header comments, some of which are `Key:
/// value` directives (MaxProcs, UnixStartTime, ...). Missing values are -1.
///
/// The reproduction runs on synthetic traces (see archives.hpp), but this
/// module makes real archive logs first-class inputs: any downloaded
/// `*.swf` can be replayed through the identical pipeline.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "workload/job.hpp"

namespace bsld::wl {

/// Result of parsing an SWF stream: jobs plus header directives.
struct SwfTrace {
  std::vector<Job> jobs;
  /// Header directives such as {"MaxProcs", "430"}; keys as written.
  std::map<std::string, std::string> header;
  /// Number of data lines skipped: structurally broken (< 18 fields),
  /// unparsable mandatory fields, or unusable values (id/size <= 0).
  std::size_t skipped_lines = 0;

  /// MaxProcs directive as an integer, or `fallback` when absent/invalid.
  [[nodiscard]] std::int32_t max_procs(std::int32_t fallback) const;
};

/// Parsing behaviour switches.
struct SwfOptions {
  /// Lenient (default): a malformed record — short line or unparsable
  /// mandatory field — is skipped and counted in `skipped_lines`, so one
  /// bad line in a multi-million-job archive cannot abort an hours-long
  /// sweep. Strict: such a record throws bsld::Error naming the line
  /// number. Records whose values are merely unusable (id or size <= 0,
  /// the archives' own convention for cancelled jobs) are skipped and
  /// counted in both modes.
  bool strict = false;
};

/// Incremental SWF record cursor: yields jobs one line at a time, in *file
/// order* (SWF archives are sorted by submit time by convention, but this
/// cursor does not enforce or restore that — wrap it in a
/// wl::SortingJobStream for strict (submit, id) order). Header directives
/// and skip counts accumulate as lines are consumed; both are complete once
/// next() has returned std::nullopt. This is the O(1)-memory primitive
/// under parse_swf() and the streaming half of wl::open_stream().
///
/// Fields are separated by any run of the "C" locale's whitespace (space,
/// tab, CR, LF, VT, FF), whatever locale is installed. A record is split
/// into a fixed 18-slot array without allocating; fields after the 18th
/// are ignored.
///
/// The referenced istream must outlive the cursor.
class SwfRecordStream {
 public:
  explicit SwfRecordStream(std::istream& in, const SwfOptions& options = {});

  /// The next usable record, or std::nullopt at end of input. Applies the
  /// same per-record fallbacks and skip/strict rules as parse_swf().
  std::optional<Job> next();

  /// Header directives seen so far (complete after exhaustion; by SWF
  /// convention all of them precede the first data record).
  [[nodiscard]] const std::map<std::string, std::string>& header() const {
    return header_;
  }

  /// Skipped-record count so far (complete after exhaustion).
  [[nodiscard]] std::size_t skipped_lines() const { return skipped_; }

  /// MaxProcs directive seen so far as an integer, or `fallback`.
  [[nodiscard]] std::int32_t max_procs(std::int32_t fallback) const;

 private:
  std::istream* in_;
  SwfOptions options_;
  std::map<std::string, std::string> header_;
  std::size_t skipped_ = 0;
  std::size_t line_no_ = 0;
  std::string line_;
};

/// Parses SWF text. Tolerates missing optional fields (-1): processor count
/// falls back from allocated to requested processors, requested time falls
/// back to the actual runtime. Malformed records are skipped and counted
/// (or rejected with their line number under `options.strict`).
SwfTrace parse_swf(std::istream& in, const SwfOptions& options = {});

/// Convenience overload over a string.
SwfTrace parse_swf_text(const std::string& text,
                        const SwfOptions& options = {});

/// Reads and parses a file. Throws bsld::Error when it cannot be opened.
SwfTrace load_swf_file(const std::string& path,
                       const SwfOptions& options = {});

/// Writes a workload as SWF (18 fields; unknown fields emitted as -1),
/// including a small header with MaxProcs and the workload name. Record
/// fields are written in plain decimal whatever the stream's format flags.
void write_swf(std::ostream& out, const Workload& workload);

/// Writes to a file. Throws bsld::Error when the file cannot be created.
void save_swf_file(const std::string& path, const Workload& workload);

}  // namespace bsld::wl
