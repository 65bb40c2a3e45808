/// \file config_value.hpp
/// \brief One key of a util::Config read through util::ConfigCodec, for
/// tests that check the text a writer produced or a reader accepts.
#pragma once

#include <string>

#include "util/config.hpp"

namespace bsld::testing {

/// `key` read as a T (the codec's reader forms), or `fallback` when the key
/// is absent; a malformed value throws bsld::Error naming the key.
template <typename T>
T config_value(const util::Config& config, const std::string& key,
               T fallback) {
  util::ConfigCodec::reader(config).field(key, fallback);
  return fallback;
}

}  // namespace bsld::testing
