/// \file cache_epoch_test.cpp
/// \brief Guards the result cache against serving numbers from an older
/// simulator: the pm_parity goldens (tests/golden/pm_parity/) are the
/// simulator's pinned numeric output, so their fingerprint is pinned
/// together with ResultCache::kSchemaEpoch. Editing a golden without
/// bumping the epoch fails here; a bump re-pins both values at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "report/result_cache.hpp"
#include "util/hash.hpp"

namespace bsld::report {
namespace {

/// The epoch the goldens below were captured under, and their fingerprint.
constexpr int kPinnedEpoch = 3;
constexpr const char* kPinnedFingerprint = "7b3f0fbafc542c75";

/// FNV-1a over every golden file's name, size and bytes, in name order.
std::string golden_fingerprint(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::string text;
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string content = bytes.str();
    text += file.filename().string() + '\n' +
            std::to_string(content.size()) + '\n' + content;
  }
  return util::hex64(util::fnv1a64(text));
}

TEST(CacheEpochTest, GoldenFingerprintIsPinnedToTheSchemaEpoch) {
  const std::string fingerprint =
      golden_fingerprint(BSLD_PM_PARITY_GOLDEN_DIR);
  ASSERT_EQ(ResultCache::kSchemaEpoch, kPinnedEpoch)
      << "kSchemaEpoch changed: re-pin kPinnedEpoch and kPinnedFingerprint "
         "(now "
      << fingerprint << ") together";
  EXPECT_EQ(fingerprint, kPinnedFingerprint)
      << "results changed: bump kSchemaEpoch";
}

}  // namespace
}  // namespace bsld::report
