#include "workload/swf.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <fstream>
#include <istream>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace bsld::wl {

namespace {

using util::parse_exact;

/// Parses one signed integer token that must fit int32 (processor counts,
/// user ids); returns false on garbage or a value outside int32.
bool parse_int32(std::string_view token, std::int32_t& out) {
  std::int64_t value = 0;
  const auto narrow =
      parse_exact(token, value) ? util::narrow_int32(value) : std::nullopt;
  out = narrow.value_or(0);
  return narrow.has_value();
}

/// SWF allows fractional seconds in some fields; accept and truncate.
bool parse_time_like(std::string_view token, std::int64_t& out) {
  if (parse_exact(token, out)) return true;
  const std::optional<double> value = util::parse_double(token);
  if (!value) return false;
  // Truncating a double outside int64's range is undefined behaviour;
  // such a "time" is a malformed field, not a usable record. 2^63 is
  // exactly representable, so these bounds are precise.
  if (*value < -9223372036854775808.0 || *value >= 9223372036854775808.0) {
    return false;
  }
  out = static_cast<std::int64_t>(*value);
  return true;
}

/// The "C"-locale isspace set (space, \t, \n, \v, \f, \r), inline: the
/// split loop runs once per byte of a multi-million-line archive.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Fields of an SWF data record.
constexpr std::size_t kSwfFields = 18;
using SwfFields = std::array<std::string_view, kSwfFields>;

/// Splits the first kSwfFields whitespace-separated fields of `line` into
/// `fields` and returns how many there were; fields past the 18th are
/// never looked at (longer lines are accepted as they always were).
std::size_t split_fields(std::string_view line, SwfFields& fields) {
  const char* p = line.data();
  const char* const end = p + line.size();
  std::size_t count = 0;
  while (count < kSwfFields) {
    while (p != end && is_space(*p)) ++p;
    if (p == end) break;
    const char* const start = p;
    while (p != end && !is_space(*p)) ++p;
    fields[count++] =
        std::string_view(start, static_cast<std::size_t>(p - start));
  }
  return count;
}

void parse_header_line(std::string_view line,
                       std::map<std::string, std::string>& header) {
  // `; Key: value` — anything else is free-form commentary.
  std::size_t i = 1;  // past ';'
  while (i < line.size() && is_space(line[i])) ++i;
  const auto colon = line.find(':', i);
  if (colon == std::string_view::npos) return;
  std::string key(line.substr(i, colon - i));
  if (key.empty() ||
      !std::all_of(key.begin(), key.end(), [](unsigned char c) {
        return std::isalnum(c) || c == '_' || c == '-' || c == ' ';
      })) {
    return;
  }
  while (!key.empty() && key.back() == ' ') key.pop_back();
  std::size_t v = colon + 1;
  while (v < line.size() && is_space(line[v])) ++v;
  std::string value(line.substr(v));
  while (!value.empty() && is_space(value.back())) value.pop_back();
  if (!header.contains(key)) header.emplace(std::move(key), std::move(value));
}

}  // namespace

SwfRecordStream::SwfRecordStream(std::istream& in, const SwfOptions& options)
    : in_(&in), options_(options) {}

std::int32_t SwfRecordStream::max_procs(std::int32_t fallback) const {
  const auto it = header_.find("MaxProcs");
  std::int32_t value = 0;
  return it != header_.end() && parse_int32(it->second, value) && value > 0
             ? value
             : fallback;
}

std::optional<Job> SwfRecordStream::next() {
  while (std::getline(*in_, line_)) {
    ++line_no_;
    // is_space() covers the CR of CRLF files like any other separator.
    const std::string_view view(line_);
    std::size_t first = 0;
    while (first < view.size() && is_space(view[first])) ++first;
    if (first == view.size()) continue;  // blank
    if (view[first] == ';') {
      parse_header_line(view.substr(first), header_);
      continue;
    }

    SwfFields fields;
    const std::size_t count = split_fields(view.substr(first), fields);
    if (count < kSwfFields) {
      // A malformed record must not abort the whole archive mid-sweep:
      // skip and count it, unless the caller asked for strict validation.
      BSLD_REQUIRE(!options_.strict,
                   "SWF: line " + std::to_string(line_no_) + " has only " +
                       std::to_string(count) + " fields (expected 18)");
      ++skipped_;
      continue;
    }

    // Field indices per SWF definition (0-based here).
    std::int64_t id = 0, submit = 0, run = 0, req_time = 0;
    std::int32_t alloc = 0, req_procs = 0, user = 0;
    const bool ok = parse_exact(fields[0], id) &&
                    parse_time_like(fields[1], submit) &&
                    parse_time_like(fields[3], run) &&
                    parse_int32(fields[4], alloc) &&
                    parse_int32(fields[7], req_procs) &&
                    parse_time_like(fields[8], req_time) &&
                    parse_int32(fields[11], user);
    if (!ok) {
      BSLD_REQUIRE(!options_.strict,
                   "SWF: line " + std::to_string(line_no_) +
                       " has an unparsable or out-of-range mandatory field");
      ++skipped_;
      continue;
    }

    Job job;
    job.id = id;
    job.submit = std::max<Time>(submit, 0);
    job.run_time = run;
    job.size = alloc > 0 ? alloc : req_procs;
    job.requested_time = req_time > 0 ? req_time : run;
    job.user_id = user;

    if (job.id <= 0 || job.size <= 0 || job.run_time < 0) {
      ++skipped_;
      continue;
    }
    return job;
  }
  return std::nullopt;
}

void write_swf(std::ostream& out, const Workload& workload) {
  out << "; Workload: " << workload.name << '\n';
  out << "; MaxProcs: " << workload.cpus << '\n';
  out << "; Generated by bsldsched (synthetic trace, SWF layout)\n";
  // One std::to_chars pass per record into a line buffer and one write:
  // eighteen stream insertions per record cost ~1 µs.
  char line[kSwfFields * 21];  // 20 characters per int64 plus a separator
  for (const Job& job : workload.jobs) {
    // 18 SWF fields; unknowns are -1 per the format definition.
    const std::int64_t fields[kSwfFields] = {
        job.id,              // 1 job number
        job.submit,          // 2 submit time
        -1,                  // 3 wait time (filled by schedulers)
        job.run_time,        // 4 run time
        job.size,            // 5 allocated processors
        -1,                  // 6 average CPU time used
        -1,                  // 7 used memory
        job.size,            // 8 requested processors
        job.requested_time,  // 9 requested time
        -1,                  // 10 requested memory
        1,                   // 11 status (completed)
        job.user_id,         // 12 user id
        -1,                  // 13 group id
        -1,                  // 14 executable id
        -1,                  // 15 queue
        -1,                  // 16 partition
        -1,                  // 17 preceding job
        -1,                  // 18 think time
    };
    char* end = line;
    for (const std::int64_t field : fields) {
      end = std::to_chars(end, line + sizeof line, field).ptr;
      *end++ = ' ';
    }
    end[-1] = '\n';
    out.write(line, end - line);
  }
}

void save_swf_file(const std::string& path, const Workload& workload) {
  std::ofstream out(path);
  BSLD_REQUIRE(out.good(), "SWF: cannot create file `" + path + "`");
  write_swf(out, workload);
}

}  // namespace bsld::wl
