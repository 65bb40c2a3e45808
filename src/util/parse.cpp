#include "util/parse.hpp"

#include <cctype>
#include <cmath>

#include "util/error.hpp"

namespace bsld::util {

std::string_view strip(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

namespace {

/// std::from_chars rejects an explicit '+' sign; users type it. Strip it
/// only when a sign-less token follows, so "+-5" and "++5" stay rejected.
std::string_view strip_plus(std::string_view text) {
  if (text.size() > 1 && text.front() == '+' && text[1] != '+' &&
      text[1] != '-') {
    text.remove_prefix(1);
  }
  return text;
}

template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  if (!parse_exact(strip_plus(strip(text)), value)) return std::nullopt;
  return value;
}

[[noreturn]] void reject(std::string_view text, const std::string& what,
                         const char* expected) {
  throw Error(what + " expects " + expected + ", got `" + std::string(text) +
              "`");
}

}  // namespace

std::optional<double> parse_double(std::string_view text) {
  const std::optional<double> value = parse_number<double>(text);
  if (value && !std::isfinite(*value)) return std::nullopt;  // nan/inf.
  return value;
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  return parse_number<std::int64_t>(text);
}

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  return parse_number<std::uint64_t>(text);
}

double require_double(std::string_view text, const std::string& what) {
  const std::optional<double> value = parse_double(text);
  if (!value) reject(text, what, "a finite number");
  return *value;
}

std::int64_t require_int(std::string_view text, const std::string& what) {
  const std::optional<std::int64_t> value = parse_int(text);
  if (!value) reject(text, what, "an integer");
  return *value;
}

std::uint64_t require_uint(std::string_view text, const std::string& what) {
  const std::optional<std::uint64_t> value = parse_uint(text);
  if (!value) reject(text, what, "an unsigned integer");
  return *value;
}

}  // namespace bsld::util
