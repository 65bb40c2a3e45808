/// \file registry.hpp
/// \brief util::Registry: the one string-keyed factory table behind
/// core::PolicyRegistry (policies and assigners), pm::PowerManagerRegistry
/// and sim::InstrumentRegistry.
///
/// A Registry maps a name to a one-line description and a factory over
/// `Args...`, kept sorted so listings and error messages are stable.
/// Registration takes the writer side of a shared mutex and lookups the
/// reader side, so sweep worker threads may build products concurrently;
/// register before experiment grids start executing. Factories run outside
/// the lock, so one factory may build another product of the same table.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace bsld::util {

/// Sorted name -> (description, factory) table. `owner` and `kind` name
/// the table in every error it raises, e.g. "PolicyRegistry: unknown policy
/// `x` (registered: a, b)".
template <typename Product, typename... Args>
class Registry {
 public:
  using Factory = std::function<std::unique_ptr<Product>(Args...)>;

  Registry(std::string owner, std::string kind)
      : owner_(std::move(owner)), kind_(std::move(kind)) {}

  /// Registers `factory` under `name`, optionally with a one-line
  /// description. Throws bsld::Error on an empty name, a null factory or a
  /// duplicate name.
  void add(const std::string& name, std::string description, Factory factory) {
    BSLD_REQUIRE(!name.empty(), owner_ + ": empty " + kind_ + " name");
    BSLD_REQUIRE(factory != nullptr,
                 owner_ + ": null factory for " + kind_ + " `" + name + "`");
    const WriterLock lock(mutex_);
    BSLD_REQUIRE(!entries_.contains(name), owner_ + ": " + kind_ + " `" +
                                               name + "` already registered");
    entries_.emplace(name, Entry{std::move(description), std::move(factory)});
  }
  void add(const std::string& name, Factory factory) {
    add(name, "", std::move(factory));
  }

  [[nodiscard]] bool has(const std::string& name) const {
    const ReaderLock lock(mutex_);
    return entries_.contains(name);
  }

  /// Throws bsld::Error when `name` is unknown, listing what is registered.
  void require(const std::string& name) const {
    if (!has(name)) throw_unknown(name);
  }

  /// Registered names in sorted order.
  [[nodiscard]] std::vector<std::string> names() const {
    const ReaderLock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, _] : entries_) out.push_back(name);
    return out;
  }

  /// (name, description) pairs in sorted order.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> entries()
      const {
    const ReaderLock lock(mutex_);
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      out.emplace_back(name, entry.description);
    }
    return out;
  }

  /// Builds the product registered under `name`. Throws bsld::Error when
  /// `name` is unknown or its factory returns null.
  [[nodiscard]] std::unique_ptr<Product> make(const std::string& name,
                                              Args... args) const {
    Factory factory;
    {
      const ReaderLock lock(mutex_);
      const auto it = entries_.find(name);
      if (it != entries_.end()) factory = it->second.factory;
    }
    if (factory == nullptr) throw_unknown(name);
    std::unique_ptr<Product> product = factory(args...);
    BSLD_REQUIRE(product != nullptr, owner_ + ": " + kind_ + " `" + name +
                                         "` factory returned null");
    return product;
  }

 private:
  struct Entry {
    std::string description;
    Factory factory;
  };

  [[noreturn]] void throw_unknown(const std::string& name) const {
    std::string registered;
    for (const std::string& known : names()) {
      if (!registered.empty()) registered += ", ";
      registered += known;
    }
    throw Error(owner_ + ": unknown " + kind_ + " `" + name +
                "` (registered: " + registered + ")");
  }

  const std::string owner_;
  const std::string kind_;
  mutable SharedMutex mutex_;
  std::map<std::string, Entry> entries_ BSLD_GUARDED_BY(mutex_);
};

}  // namespace bsld::util
