#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/error.hpp"

namespace bsld::util {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, SplitIsDeterministicAndIndependent) {
  const Rng parent(77);
  Rng child1 = parent.split("size");
  Rng child1_again = parent.split("size");
  Rng child2 = parent.split("runtime");
  EXPECT_EQ(child1(), child1_again());
  EXPECT_NE(child1(), child2());
}

TEST(RngTest, SplitDoesNotAdvanceParent) {
  Rng a(5);
  Rng b(5);
  (void)a.split("x");
  EXPECT_EQ(a(), b());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(17);
  EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform_int(5, 4), Error);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(19);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(40.0);
  EXPECT_NEAR(sum / kN, 40.0, 0.5);
}

TEST(RngTest, ExponentialRejectsNonPositiveMean) {
  Rng rng(1);
  EXPECT_THROW((void)rng.exponential(0.0), Error);
}

TEST(RngTest, NormalMoments) {
  Rng rng(23);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(RngTest, LognormalMedian) {
  Rng rng(29);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.lognormal(4.0, 1.0));
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], std::exp(4.0), std::exp(4.0) * 0.05);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(37);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.discrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.15);
}

TEST(RngTest, DiscreteRejectsAllZero) {
  Rng rng(1);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_THROW((void)rng.discrete(weights), Error);
}

TEST(RngTest, DiscreteRejectsNegative) {
  Rng rng(1);
  std::vector<double> weights = {1.0, -0.5};
  EXPECT_THROW((void)rng.discrete(weights), Error);
}

TEST(RngTest, HashLabelStable) {
  EXPECT_EQ(hash_label("abc"), hash_label("abc"));
  EXPECT_NE(hash_label("abc"), hash_label("abd"));
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

}  // namespace
}  // namespace bsld::util
