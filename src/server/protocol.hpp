/// \file protocol.hpp
/// \brief The bsldsim daemon's wire protocol: line-delimited text
/// requests, byte-framed replies.
///
/// Requests (client -> server), one verb per line:
///
///   ping                       liveness probe
///   stats                      cache/runner counters
///   shutdown                   ask the daemon to drain and exit
///   run [csv|jsonl]            submit work (default csv); followed by a
///   <config lines...>          RunSpec / sweep-grid config (exactly what
///   end                        bsldsim --spec / --sweep files contain),
///                              terminated by a line reading `end`
///
/// Replies (server -> client):
///
///   ok <k>=<v> ... bytes=<B>\n   attributes, then exactly B payload
///   <B raw payload bytes>        bytes (the sweep output in grid order,
///   end\n                        rendered by the regular row writers),
///                                then the closing frame line
///   err <message>\n              malformed request or failed run; the
///                                message names the offending key/flag
///
/// The byte-counted frame makes the payload opaque: rows never collide
/// with protocol framing, and a client can splice the payload to stdout
/// verbatim — a warm `bsldsim query` byte-identical to the direct run.
/// Parsing is strict: unknown verbs, bad formats and malformed config
/// bodies raise bsld::Error (the server answers `err ...` and keeps the
/// connection usable), never crash the daemon.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "util/config.hpp"

namespace bsld::server {

/// One parsed client request.
struct Request {
  enum class Kind { kPing, kStats, kShutdown, kRun };
  Kind kind = Kind::kPing;
  /// Payload rendering for kRun: "csv" or "jsonl".
  std::string format = "csv";
  /// The spec/grid config of a kRun request (report::expand_grid input).
  util::Config config;
};

/// Incremental request assembler: feed protocol lines as they arrive;
/// a complete Request pops out when its final line lands.
class RequestParser {
 public:
  /// Consumes one line (without the trailing newline). Returns the
  /// completed Request, or std::nullopt when the request needs more
  /// lines. Blank lines between requests are ignored. Throws bsld::Error
  /// on protocol violations (unknown verb, bad format token, malformed
  /// config body, oversized body); the parser resets itself so the
  /// connection can carry further requests after an error reply.
  [[nodiscard]] std::optional<Request> feed(const std::string& line);

  /// True while inside a `run` body (useful for EOF diagnostics).
  [[nodiscard]] bool mid_request() const { return in_run_; }

  /// Longest accepted `run` body: 64k lines (a guard against unbounded
  /// buffering, far above any real grid config).
  static constexpr std::size_t kMaxBodyLines = 64 * 1024;

 private:
  bool in_run_ = false;
  /// The request already failed (oversized body, bad format) but the
  /// client is still sending its body; swallow lines until the request's
  /// `end` so the connection stays in sync.
  bool discarding_ = false;
  std::string format_;
  std::vector<std::string> body_;
};

/// Renders the reply frame around `payload`: "ok <attrs> bytes=B", the
/// payload bytes, "end". `attrs` is the preformatted "k=v k=v" list (may
/// be empty).
std::string ok_reply(const std::string& attrs, const std::string& payload);

/// Renders an error reply; newlines in `message` are flattened so the
/// reply stays one line.
std::string err_reply(const std::string& message);

/// Client-side reply header parsing: splits "ok a=1 b=2 bytes=5" into
/// {{"a","1"},{"b","2"},{"bytes","5"}}. Throws bsld::Error when `line`
/// is neither an ok nor an err header, or an ok header lacks bytes=.
struct ReplyHeader {
  bool ok = false;
  std::string error;  ///< the message of an err reply.
  std::vector<std::pair<std::string, std::string>> attrs;
  std::size_t payload_bytes = 0;
};
ReplyHeader parse_reply_header(const std::string& line);

}  // namespace bsld::server
