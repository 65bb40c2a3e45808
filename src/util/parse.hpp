/// \file parse.hpp
/// \brief Checked numeric parsing for every user-facing input path.
///
/// CLI flags, config/spec files, SWF fields and server protocol requests
/// all funnel free-form text into numbers. std::stod-style parsing is the
/// wrong tool there: it accepts trailing garbage ("1.5abc" parses as 1.5),
/// locale-dependent spellings, and non-finite values ("nan" poisons
/// RunSpec::key), and it throws std::invalid_argument/std::out_of_range —
/// types nothing upstream catches deliberately. These helpers parse the
/// whole token or fail: the optional-returning forms never throw, and the
/// require_* wrappers throw bsld::Error with a diagnostic that names the
/// offending flag/key, so a typo surfaces as a nonzero exit (or an `err`
/// protocol reply), never a crash or a silently truncated value.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace bsld::util {

/// `text` without its surrounding whitespace (the "C" locale's).
[[nodiscard]] std::string_view strip(std::string_view text);

/// Parses the whole of `text` (surrounding ASCII whitespace ignored, one
/// optional leading '+' or '-') as a finite double. Rejects empty input,
/// trailing garbage, hex floats, and non-finite spellings (nan/inf).
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

/// Parses the whole of `text` as a signed 64-bit integer (whitespace and
/// a leading '+' tolerated). Rejects trailing garbage and out-of-range
/// values.
[[nodiscard]] std::optional<std::int64_t> parse_int(std::string_view text);

/// Unsigned variant spanning the full uint64 range (workload seeds).
[[nodiscard]] std::optional<std::uint64_t> parse_uint(std::string_view text);

/// Whole-token std::from_chars for machine-written fields (SWF records,
/// cache entries): no whitespace, no '+', nothing after the number. False,
/// leaving `out` unchanged, when `text` is not exactly one T.
template <typename T>
[[nodiscard]] bool parse_exact(std::string_view text, T& out) {
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  return ec == std::errc{} && ptr == last;
}

/// Checked narrowing of a parsed integer: std::nullopt when `value` lies
/// outside int32's range (a static_cast would wrap it silently).
[[nodiscard]] inline std::optional<std::int32_t> narrow_int32(
    std::int64_t value) {
  if (value < INT32_MIN || value > INT32_MAX) return std::nullopt;
  return static_cast<std::int32_t>(value);
}

/// Throwing wrappers: `what` names the input's origin — "flag --bsld",
/// "key `scale`", "request line 3" — and appears verbatim in the
/// bsld::Error message together with the rejected text.
[[nodiscard]] double require_double(std::string_view text,
                                    const std::string& what);
[[nodiscard]] std::int64_t require_int(std::string_view text,
                                       const std::string& what);
[[nodiscard]] std::uint64_t require_uint(std::string_view text,
                                         const std::string& what);

}  // namespace bsld::util
