/// \file config.hpp
/// \brief Key/value configuration store mirroring Alvio-style platform
/// configuration files ("All the parameters are platform dependent and
/// adjustable in configuration files", paper §4).
///
/// File format: one `key = value` per line; blank lines ignored; a `#` at
/// the line start or after whitespace starts a comment, so `p = tr#1.swf`
/// keeps its `#`. Keys are dot-separated identifiers (e.g. `power.beta`).
///
/// Serialized values (RunSpec and its parts, the result cache's `[sim]`
/// section) go through ConfigCodec: each type has one
/// `bind_config(ConfigCodec&, T&)` function that names every key once and
/// runs in both directions. Reading, a field takes its key's value or
/// stays unchanged when the key is absent; writing, it renders in the
/// canonical text (config_double, std::to_string, `true`/`false`, `", "`
/// lists) and refuses text that would not read back. read_config and
/// write_config run a type's codec, so its reader and writer cannot
/// disagree on which keys exist.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace bsld::util {

/// A string key/value map; ConfigCodec reads and writes its values.
class Config {
 public:
  Config() = default;

  /// Parses configuration text. Throws bsld::Error on malformed lines or
  /// duplicate keys.
  static Config parse(const std::string& text);

  /// Reads and parses a configuration file. Throws bsld::Error when the
  /// file cannot be opened.
  static Config load_file(const std::string& path);

  /// Sets or replaces a value; reader errors name its `origin` (a flag).
  void set(const std::string& key, std::string value, std::string origin = {});
  /// Removes `key` and every key below it (`key.…`).
  void erase(const std::string& key);
  /// Sets every key of `other`, each with `origin`.
  void merge(const Config& other, const std::string& origin = {});

  [[nodiscard]] bool contains(const std::string& key) const;

  /// Serializes to the same `key = value` format parse() accepts.
  [[nodiscard]] std::string to_string() const;

 private:
  friend class ConfigCodec;

  /// The key's value text, or nullptr when absent.
  [[nodiscard]] const std::string* raw(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::map<std::string, std::string> origins_;  ///< Keys set with one.
};

/// Shortest decimal form of `value` that parses back to the identical
/// double (std::to_chars): the canonical value format for serialized
/// configs, where byte-identical round-trips matter.
std::string config_double(double value);

/// The two-way binder of the file comment: a codec function makes one call
/// per key; over a reader it fills the fields, over a writer it sets keys.
class ConfigCodec {
 public:
  /// Reads from `config`. An absent key leaves its field unchanged, unless
  /// `require_all`, when it is a bsld::Error like a malformed value.
  static ConfigCodec reader(const Config& config, bool require_all = false) {
    return ConfigCodec(&config, nullptr, require_all);
  }
  /// Writes the canonical text of every bound field into `config`.
  static ConfigCodec writer(Config& config) {
    return ConfigCodec(nullptr, &config, false);
  }

  [[nodiscard]] bool reading() const { return in_ != nullptr; }

  /// Reading: a bsld::Error naming `key` (and its origin) unless `ok`.
  void check(bool ok, const std::string& key, const std::string& problem) const;
  /// Reading: a bsld::Error naming a key of the config no field read.
  void reject_unread() const;

  /// Scalar and list forms; the int32 form rejects values outside int32
  /// (util::narrow_int32) with a bsld::Error naming the key.
  void field(const std::string& key, std::string& value);
  void field(const std::string& key, double& value);
  void field(const std::string& key, bool& value);
  void field(const std::string& key, std::int64_t& value);
  void field(const std::string& key, std::int32_t& value);
  void field(const std::string& key, std::uint64_t& value);
  void field(const std::string& key, std::vector<double>& value);
  void field(const std::string& key, std::vector<std::int64_t>& value);
  void field(const std::string& key, std::vector<std::string>& value);

  /// Present iff set: written only when `value` holds one, read (into a
  /// default-constructed T) only when the key is there.
  template <typename T>
  void optional(const std::string& key, std::optional<T>& value) {
    if (reading() ? !in_->contains(key) : !value.has_value()) return;
    if (!value) value.emplace();
    field(key, *value);
  }

  /// An enum bound by its name; `names` pairs every value with its text.
  template <typename E>
  void choice(const std::string& key, E& value,
              std::initializer_list<std::pair<const char*, E>> names) {
    std::string text;
    for (const auto& [name, option] : names) {
      if (option == value) text = name;
    }
    field(key, text);
    std::string expected;
    for (const auto& [name, option] : names) {
      if (text == name) {
        value = option;
        return;
      }
      expected += (expected.empty() ? "" : ", ") + std::string(name);
    }
    throw Error(what(key) + " is `" + text + "`, expected " + expected);
  }

  /// Written only when `value` differs from `fallback`, so an absent key
  /// is never an error.
  template <typename T>
  void non_default(const std::string& key, T& value, const T& fallback) {
    if (reading() ? in_->contains(key) : value != fallback) field(key, value);
  }

  /// A table bound as one list key per column: keys[i] lists the i-th
  /// member of every row, in row order. Reading, an absent key keeps that
  /// column of the current rows, the lists must agree in length, and an
  /// integral member takes its value rounded to the nearest integer.
  template <typename Row, typename... Field>
  void columns(const std::array<const char*, sizeof...(Field)>& keys,
               std::vector<Row>& rows, Field Row::*... members) {
    std::array<std::vector<double>, sizeof...(Field)> lists;
    for (const Row& row : rows) {
      std::size_t i = 0;
      (lists[i++].push_back(static_cast<double>(row.*members)), ...);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) field(keys[i], lists[i]);
    if (!reading()) return;
    for (const std::vector<double>& list : lists) {
      BSLD_REQUIRE(list.size() == lists[0].size(),
                   "Config: keys " + key_names(keys) + " differ in length");
    }
    rows.assign(lists[0].size(), Row{});
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::size_t i = 0;
      ((rows[r].*members = cell<Field>(lists[i++][r])), ...);
    }
  }

  /// columns() present iff the table has rows: written only when it has
  /// some, read only when its keys are given, all of them and non-empty.
  template <typename Row, typename... Field>
  void optional_columns(const std::array<const char*, sizeof...(Field)>& keys,
                        std::vector<Row>& rows, Field Row::*... members) {
    std::size_t given = reading() || rows.empty() ? 0 : keys.size();
    for (const char* key : keys) {
      if (reading() && in_->contains(key)) ++given;
    }
    if (given == 0) return;
    BSLD_REQUIRE(given == keys.size(),
                 "Config: keys " + key_names(keys) + " must be given together");
    columns(keys, rows, members...);
    BSLD_REQUIRE(!rows.empty(),
                 "Config: keys " + key_names(keys) + " must not be empty");
  }

 private:
  ConfigCodec(const Config* in, Config* out, bool require_all)
      : in_(in), out_(out), require_all_(require_all) {}

  /// Reading: the key's text, or nullptr when it is absent (a bsld::Error
  /// under require_all). Records the key as read.
  [[nodiscard]] const std::string* find(const std::string& key);
  /// Writing: sets a free-text key, refusing text that would not read back.
  void write(const std::string& key, std::string text);
  /// Reading: "Config: key `K`", naming the key's origin if it has one.
  [[nodiscard]] std::string what(const std::string& key) const;

  template <typename T>
  static T cell(double value) {
    if constexpr (std::is_integral_v<T>) return std::llround(value);
    else return value;
  }

  template <std::size_t N>
  static std::string key_names(const std::array<const char*, N>& keys) {
    std::string out;
    for (const char* key : keys) {
      out += (out.empty() ? "`" : ", `") + std::string(key) + "`";
    }
    return out;
  }

  const Config* in_;
  Config* out_;
  bool require_all_;
  std::vector<const std::string*> read_;  ///< Every value find() found.
};

/// Runs T's codec (`bind_config(ConfigCodec&, T&)`, found by argument-
/// dependent lookup) over a reader, starting from `value`.
template <typename T>
T read_config(const Config& config, T value = T{}) {
  ConfigCodec codec = ConfigCodec::reader(config);
  bind_config(codec, value);
  return value;
}

/// Runs T's codec over a writer. The codec takes its value by mutable
/// reference (one function serves both directions), so it runs on a copy
/// and never touches `value`.
template <typename T>
Config write_config(const T& value) {
  Config config;
  T copy = value;
  ConfigCodec codec = ConfigCodec::writer(config);
  bind_config(codec, copy);
  return config;
}

}  // namespace bsld::util
