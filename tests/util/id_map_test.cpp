#include "util/id_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace bsld::util {
namespace {

constexpr JobId kMin = std::numeric_limits<JobId>::min();
constexpr JobId kMax = std::numeric_limits<JobId>::max();

/// Checks every key of `universe` (a superset of the keys ever inserted)
/// against the reference map.
void expect_same(const IdMap<std::int64_t>& map,
                 const std::unordered_map<JobId, std::int64_t>& reference,
                 const std::vector<JobId>& universe) {
  for (const JobId key : universe) {
    const auto it = reference.find(key);
    const std::int64_t* value = map.find(key);
    if (it == reference.end()) {
      ASSERT_EQ(value, nullptr) << "key " << key;
      ASSERT_FALSE(map.contains(key)) << "key " << key;
    } else {
      ASSERT_NE(value, nullptr) << "key " << key;
      ASSERT_EQ(*value, it->second) << "key " << key;
    }
  }
}

/// Random insert / erase / find / overwrite over `universe`, mirrored into
/// std::unordered_map; every result and, periodically, every key agree.
void run_differential(std::uint64_t seed, const std::vector<JobId>& universe,
                      int operations) {
  Rng rng(seed);
  IdMap<std::int64_t> map;
  std::unordered_map<JobId, std::int64_t> reference;
  const auto last = static_cast<std::int64_t>(universe.size()) - 1;
  for (int op = 0; op < operations; ++op) {
    const JobId key = universe[static_cast<std::size_t>(rng.uniform_int(0, last))];
    const std::int64_t value = rng.uniform_int(-1000, 1000);
    switch (rng.uniform_int(0, 3)) {
      case 0:
      case 1:
        ASSERT_EQ(map.insert(key, value), reference.emplace(key, value).second)
            << "op " << op << " insert " << key;
        break;
      case 2:
        ASSERT_EQ(map.erase(key), reference.erase(key) == 1)
            << "op " << op << " erase " << key;
        break;
      default:
        if (std::int64_t* found = map.find(key)) {
          ASSERT_TRUE(reference.contains(key)) << "op " << op;
          *found = value;  // Writes through find() persist.
          reference[key] = value;
        } else {
          ASSERT_FALSE(reference.contains(key)) << "op " << op;
        }
        break;
    }
    if (op % 97 == 0) expect_same(map, reference, universe);
  }
  expect_same(map, reference, universe);
}

TEST(IdMapTest, MatchesUnorderedMapOnADenseSmallUniverse) {
  // 40 keys keep tables at 16..128 slots: long probe runs, many wraps.
  std::vector<JobId> universe;
  for (JobId key = 0; key < 40; ++key) universe.push_back(key);
  run_differential(1, universe, 200000);
}

TEST(IdMapTest, MatchesUnorderedMapOnWideAndExtremeKeys) {
  Rng rng(2);
  std::vector<JobId> universe{kMin, kMax, kNoJob, 0, 1, kMin + 1, kMax - 1};
  while (universe.size() < 3000) {
    universe.push_back(static_cast<JobId>(rng()));
  }
  run_differential(3, universe, 300000);
}

/// The slot a key hashes to in a table of 2^bits slots. A copy of IdMap's
/// hash, used only to build colliding keys: if the hash changes, the cases
/// below still run as ordinary differential checks.
std::size_t home(JobId key, int bits) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >>
      (64 - bits));
}

TEST(IdMapTest, ProbeRunWrapsPastTheEndAndShrinksFromTheMiddle) {
  // Six keys homed at the last of 16 slots: their run covers 15, 0..4.
  std::vector<JobId> run;
  for (JobId key = 1; run.size() < 6; ++key) {
    if (home(key, 4) == 15) run.push_back(key);
  }
  // Plus one key homed at slot 1, which the run pushes further along.
  JobId displaced = 1;
  while (home(displaced, 4) != 1) ++displaced;

  IdMap<std::int64_t> map;
  std::unordered_map<JobId, std::int64_t> reference;
  std::vector<JobId> universe = run;
  universe.push_back(displaced);
  for (const JobId key : universe) {
    ASSERT_TRUE(map.insert(key, key * 3));
    reference.emplace(key, key * 3);
  }
  expect_same(map, reference, universe);
  // Erase from the middle of the run, then its head, then its wrapped
  // tail: every later entry must stay reachable after each shift.
  for (const JobId key : {run[2], run[0], run[5], displaced, run[3]}) {
    ASSERT_TRUE(map.erase(key));
    ASSERT_FALSE(map.erase(key));
    reference.erase(key);
    expect_same(map, reference, universe);
  }
  for (const JobId key : {run[0], run[2]}) {
    ASSERT_TRUE(map.insert(key, -key));
    reference.emplace(key, -key);
  }
  expect_same(map, reference, universe);
}

TEST(IdMapTest, GrowsAcrossRehashesKeepingEveryEntry) {
  IdMap<std::int64_t> map;
  std::unordered_map<JobId, std::int64_t> reference;
  std::vector<JobId> universe;
  for (JobId key = -50000; key < 50000; key += 3) {
    universe.push_back(key);
    ASSERT_TRUE(map.insert(key, key ^ 0x55));
    reference.emplace(key, key ^ 0x55);
  }
  expect_same(map, reference, universe);
  for (std::size_t i = 0; i < universe.size(); i += 2) {
    ASSERT_TRUE(map.erase(universe[i]));
    reference.erase(universe[i]);
  }
  expect_same(map, reference, universe);
}

TEST(IdMapTest, ExtremeKeysAreOrdinaryKeys) {
  IdMap<std::int64_t> map;
  EXPECT_EQ(map.find(kNoJob), nullptr);
  EXPECT_FALSE(map.erase(kNoJob));
  for (const JobId key : {kMin, kMax, kNoJob, JobId{0}}) {
    EXPECT_TRUE(map.insert(key, key / 2)) << key;
    EXPECT_FALSE(map.insert(key, 7)) << key;  // First value kept.
  }
  for (const JobId key : {kMin, kMax, kNoJob, JobId{0}}) {
    ASSERT_NE(map.find(key), nullptr) << key;
    EXPECT_EQ(*map.find(key), key / 2) << key;
  }
  EXPECT_TRUE(map.erase(kNoJob));
  EXPECT_FALSE(map.contains(kNoJob));
  EXPECT_TRUE(map.contains(kMin));
  EXPECT_TRUE(map.contains(kMax));
  EXPECT_TRUE(map.contains(0));
}

}  // namespace
}  // namespace bsld::util
