#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>

#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/parse.hpp"

namespace bsld::util {

namespace {

/// The ", "-joined list form ("0.8, 1.1, 1.4") the list fields read back
/// item for item.
template <typename T, typename Render>
std::string list_text(const std::vector<T>& values, Render render) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += render(values[i]);
  }
  return out;
}

/// The comma-separated items of a list value: trimmed, empties dropped,
/// order kept.
std::vector<std::string> list_items(const std::string& text) {
  std::vector<std::string> items;
  std::istringstream in(text);
  for (std::string item; std::getline(in, item, ',');) {
    const std::string_view trimmed = strip(item);
    if (!trimmed.empty()) items.emplace_back(trimmed);
  }
  return items;
}

/// Where a line's comment starts: its first `#` at the line start or
/// after whitespace, or npos.
std::size_t comment_start(const std::string& line) {
  std::size_t at = line.find('#');
  while (at != std::string::npos && at != 0 &&
         !std::isspace(static_cast<unsigned char>(line[at - 1]))) {
    at = line.find('#', at + 1);
  }
  return at;
}

}  // namespace

Config Config::parse(const std::string& text) {
  Config config;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t comment = comment_start(line);
    if (comment != std::string::npos) line.erase(comment);
    const std::string trimmed(strip(line));
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    BSLD_REQUIRE(eq != std::string::npos,
                 "Config: line " + std::to_string(line_no) +
                     " is not `key = value`: " + trimmed);
    const std::string key(strip(trimmed.substr(0, eq)));
    const std::string value(strip(trimmed.substr(eq + 1)));
    BSLD_REQUIRE(!key.empty(),
                 "Config: empty key on line " + std::to_string(line_no));
    BSLD_REQUIRE(!config.values_.contains(key),
                 "Config: duplicate key `" + key + "` on line " +
                     std::to_string(line_no));
    config.values_.emplace(key, value);
  }
  return config;
}

Config Config::load_file(const std::string& path) {
  const std::optional<std::string> text = read_file_bytes(path);
  BSLD_REQUIRE(text.has_value(), "Config: cannot open file `" + path + "`");
  return parse(*text);
}

void Config::set(const std::string& key, std::string value,
                 std::string origin) {
  values_[key] = std::move(value);
  if (origin.empty()) origins_.erase(key);
  else origins_[key] = std::move(origin);
}

void Config::erase(const std::string& key) {
  const std::string below = key + '.';
  std::erase_if(values_, [&](const auto& entry) {
    return entry.first == key || entry.first.starts_with(below);
  });
}

void Config::merge(const Config& other, const std::string& origin) {
  for (const auto& [key, value] : other.values_) set(key, value, origin);
}

bool Config::contains(const std::string& key) const {
  return values_.contains(key);
}

const std::string* Config::raw(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Config::to_string() const {
  std::ostringstream os;
  for (const auto& [key, value] : values_) {
    os << key << " = " << value << '\n';
  }
  return os.str();
}

void ConfigCodec::check(bool ok, const std::string& key,
                        const std::string& problem) const {
  if (reading() && !ok) throw Error(what(key) + " " + problem);
}

void ConfigCodec::reject_unread() const {
  for (const auto& [key, text] : in_->values_) {
    if (std::find(read_.begin(), read_.end(), &text) == read_.end()) {
      throw Error(what(key) + " is not read: misspelled, or moot here");
    }
  }
}

const std::string* ConfigCodec::find(const std::string& key) {
  const std::string* text = in_->raw(key);
  BSLD_REQUIRE(text != nullptr || !require_all_,
               "Config: missing key `" + key + "`");
  if (text != nullptr) read_.push_back(text);
  return text;
}

void ConfigCodec::write(const std::string& key, std::string text) {
  // No line break, surrounding whitespace or `#` that would start a comment.
  BSLD_REQUIRE(text.find_first_of("\n\r") == std::string::npos &&
                   strip(text).size() == text.size() &&
                   comment_start(text) == std::string::npos,
               "Config: key `" + key + "` value `" + text +
                   "` would not read back as written");
  out_->set(key, std::move(text));
}

std::string ConfigCodec::what(const std::string& key) const {
  const auto origin = in_->origins_.find(key);
  if (origin == in_->origins_.end()) return "Config: key `" + key + "`";
  return "Config: " + origin->second + " (key `" + key + "`)";
}

void ConfigCodec::field(const std::string& key, std::string& value) {
  if (!reading()) write(key, value);
  else if (const std::string* text = find(key)) value = *text;
}

void ConfigCodec::field(const std::string& key, double& value) {
  if (!reading()) {
    out_->set(key, config_double(value));
  } else if (const std::string* text = find(key)) {
    value = require_double(*text, what(key));
  }
}

void ConfigCodec::field(const std::string& key, bool& value) {
  if (!reading()) {
    out_->set(key, value ? "true" : "false");
  } else if (const std::string* text = find(key)) {
    std::string v(strip(*text));
    for (char& c : v) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (v == "true" || v == "1" || v == "yes" || v == "on") value = true;
    else if (v == "false" || v == "0" || v == "no" || v == "off") value = false;
    else throw Error(what(key) + " is not a boolean: " + *text);
  }
}

void ConfigCodec::field(const std::string& key, std::int64_t& value) {
  if (!reading()) {
    out_->set(key, std::to_string(value));
  } else if (const std::string* text = find(key)) {
    value = require_int(*text, what(key));
  }
}

void ConfigCodec::field(const std::string& key, std::int32_t& value) {
  if (!reading()) {
    out_->set(key, std::to_string(value));
  } else if (const std::string* text = find(key)) {
    const std::int64_t wide = require_int(*text, what(key));
    const std::optional<std::int32_t> narrow = narrow_int32(wide);
    BSLD_REQUIRE(narrow.has_value(),
                 what(key) + " is outside the int32 range: " + *text);
    value = *narrow;
  }
}

void ConfigCodec::field(const std::string& key, std::uint64_t& value) {
  if (!reading()) {
    out_->set(key, std::to_string(value));
  } else if (const std::string* text = find(key)) {
    value = require_uint(*text, what(key));
  }
}

void ConfigCodec::field(const std::string& key, std::vector<double>& value) {
  if (!reading()) {
    out_->set(key, list_text(value, config_double));
  } else if (const std::string* text = find(key)) {
    value.clear();
    for (const std::string& item : list_items(*text)) {
      const std::optional<double> parsed = parse_double(item);
      if (!parsed) throw Error(what(key) + " has a non-numeric item: " + item);
      value.push_back(*parsed);
    }
  }
}

void ConfigCodec::field(const std::string& key,
                        std::vector<std::int64_t>& value) {
  const auto text = [](std::int64_t item) { return std::to_string(item); };
  if (!reading()) {
    out_->set(key, list_text(value, text));
  } else if (const std::string* items = find(key)) {
    value.clear();
    for (const std::string& item : list_items(*items)) {
      value.push_back(require_int(item, what(key)));
    }
  }
}

void ConfigCodec::field(const std::string& key,
                        std::vector<std::string>& value) {
  const auto same = [](const std::string& item) { return item; };
  if (!reading()) write(key, list_text(value, same));
  else if (const std::string* text = find(key)) value = list_items(*text);
}

std::string config_double(double value) {
  char buffer[64];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  BSLD_REQUIRE(ec == std::errc{}, "config_double(): value not representable");
  return std::string(buffer, end);
}

}  // namespace bsld::util
