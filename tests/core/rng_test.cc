#include "core/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace dimqr {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, DeriveSeedIsDeterministicAndLabelSensitive) {
  EXPECT_EQ(Rng::DeriveSeed(7, "alpha"), Rng::DeriveSeed(7, "alpha"));
  EXPECT_NE(Rng::DeriveSeed(7, "alpha"), Rng::DeriveSeed(7, "beta"));
  EXPECT_NE(Rng::DeriveSeed(7, "alpha"), Rng::DeriveSeed(8, "alpha"));
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(42);
  EXPECT_EQ(rng.UniformInt(3, 3), 3);
}

TEST(RngTest, UniformRealRespectsBounds) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformReal(0.25, 0.75);
    EXPECT_GE(v, 0.25);
    EXPECT_LT(v, 0.75);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(42);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(42);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

std::vector<double> RunningSums(std::vector<double> weights) {
  std::partial_sum(weights.begin(), weights.end(), weights.begin());
  return weights;
}

/// The linear scan WeightedIndex replaced, kept as the reference: the total
/// by std::accumulate, then the first running sum above one draw.
std::size_t LinearScanWeightedIndex(Rng& rng,
                                    const std::vector<double>& weights) {
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) return 0;
  double draw = rng.UniformReal(0.0, total);
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (draw < acc) return i;
  }
  return weights.size() - 1;
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(42);
  std::vector<double> w = RunningSums({0.0, 1.0, 3.0});
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 10000; ++i) counts[rng.WeightedIndex(w)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(counts[1]), 3.0, 0.4);
}

TEST(RngTest, WeightedIndexAllZeroReturnsZero) {
  Rng rng(42);
  std::vector<double> w = RunningSums({0.0, 0.0});
  EXPECT_EQ(rng.WeightedIndex(w), 0u);
}

TEST(RngTest, WeightedIndexMatchesLinearScan) {
  // SGNS's negative-sampling table: unigram counts (here a Zipf profile)
  // raised to 0.75.
  std::vector<double> unigram;
  for (int rank = 1; rank <= 800; ++rank) {
    unigram.push_back(std::pow(std::floor(3000.0 / rank) + 2.0, 0.75));
  }
  const std::vector<std::vector<double>> tables = {
      {0.0, 0.0, 1.0, 2.5, 0.5},  // zeros at the head
      {1.0, 0.0, 0.0, 3.0, 2.0},  // zeros in the middle
      {2.0, 1.0, 0.5, 0.0, 0.0},  // zeros at the tail
      {0.0, 0.0, 0.0},            // all zeros: 0, with no draw
      {},                         // no weights: 0, with no draw
      {0.7},                      // one element
      unigram,
  };
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const std::vector<double> sums = RunningSums(tables[t]);
    for (std::uint64_t stream = 0; stream < 4; ++stream) {
      Rng fast = Rng::ForStream(20240131, stream);
      Rng scan = Rng::ForStream(20240131, stream);
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(fast.WeightedIndex(sums),
                  LinearScanWeightedIndex(scan, tables[t]))
            << "table " << t << " stream " << stream << " draw " << i;
      }
      // Both consumed the same engine draws.
      EXPECT_EQ(fast.engine()(), scan.engine()()) << "table " << t;
    }
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(42);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleIndicesDistinctAndBounded) {
  Rng rng(42);
  std::vector<std::size_t> s = rng.SampleIndices(10, 4);
  ASSERT_EQ(s.size(), 4u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 4u);
  for (std::size_t i : s) EXPECT_LT(i, 10u);
}

TEST(RngTest, SampleIndicesKLargerThanNClamps) {
  Rng rng(42);
  EXPECT_EQ(rng.SampleIndices(3, 10).size(), 3u);
}

}  // namespace
}  // namespace dimqr
