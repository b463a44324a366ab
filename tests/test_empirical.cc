#include "dist/empirical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dist/generators.h"
#include "dist/interval.h"
#include "testing/oracle.h"

namespace histest {
namespace {

/// The (index, count) list of `samples`, by std::sort and a run count: the
/// reference the radix compaction must reproduce.
std::vector<std::pair<size_t, int64_t>> SortedCounts(
    std::vector<size_t> samples) {
  std::sort(samples.begin(), samples.end());
  std::vector<std::pair<size_t, int64_t>> out;
  for (const size_t s : samples) {
    if (!out.empty() && out.back().first == s) {
      ++out.back().second;
    } else {
      out.emplace_back(s, 1);
    }
  }
  return out;
}

std::vector<std::pair<size_t, int64_t>> NonZero(const CountVector& cv) {
  std::vector<std::pair<size_t, int64_t>> out;
  cv.ForEachNonZero([&](size_t i, int64_t c) { out.emplace_back(i, c); });
  return out;
}

TEST(CountVectorTest, FromSamples) {
  const CountVector cv = CountVector::FromSamples(4, {0, 1, 1, 3, 3, 3});
  EXPECT_EQ(cv.total(), 6);
  EXPECT_EQ(cv[0], 1);
  EXPECT_EQ(cv[1], 2);
  EXPECT_EQ(cv[2], 0);
  EXPECT_EQ(cv[3], 3);
}

TEST(CountVectorTest, FromCountsAndAdd) {
  CountVector cv = CountVector::FromCounts({1, 0, 2});
  EXPECT_EQ(cv.total(), 3);
  cv.Add(1);
  EXPECT_EQ(cv.total(), 4);
  EXPECT_EQ(cv[1], 1);
}

TEST(CountVectorTest, IntervalCounts) {
  const CountVector cv = CountVector::FromCounts({1, 2, 3, 4});
  EXPECT_EQ(cv.IntervalCount({1, 3}), 5);
  EXPECT_EQ(cv.IntervalCount({0, 0}), 0);
  const Partition p = Partition::EquiWidth(4, 2);
  const std::vector<int64_t> per = cv.IntervalCounts(p);
  ASSERT_EQ(per.size(), 2u);
  EXPECT_EQ(per[0], 3);
  EXPECT_EQ(per[1], 7);
}

TEST(CountVectorTest, ToEmpirical) {
  const CountVector cv = CountVector::FromCounts({1, 3});
  auto d = cv.ToEmpirical();
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value()[0], 0.25);
  EXPECT_DOUBLE_EQ(d.value()[1], 0.75);
  const CountVector empty(3);
  EXPECT_FALSE(empty.ToEmpirical().ok());
}

TEST(CountVectorTest, DistinctAndCollisions) {
  const CountVector cv = CountVector::FromCounts({3, 0, 2, 1});
  EXPECT_EQ(cv.DistinctCount(), 3u);
  // C(3,2) + C(2,2) = 3 + 1.
  EXPECT_EQ(cv.CollisionPairs(), 4);
}

TEST(CountVectorTest, SparseCompactionMatchesSortReference) {
  // Domains at the radix sort's digit edges: one 11-bit digit (2^11), two
  // (2^11 + 1), three (2^22 + 3) and four (2^40). Adds, bulk adds and
  // queries interleave, so compactions run at every buffer size; after
  // every add the buffer stays within max(4096, distinct elements).
  for (const size_t n : {size_t{1} << 11, (size_t{1} << 11) + 1,
                         (size_t{1} << 22) + 3, size_t{1} << 40}) {
    Rng rng(n);
    CountVector cv = CountVector::Sparse(n);
    std::vector<size_t> all;
    const auto draw = [&]() -> size_t {
      switch (rng.UniformInt(4)) {
        case 0:
          return n - 1 - rng.UniformInt(std::min<size_t>(n, 16));  // top digit
        case 1:
          return rng.UniformInt(std::min<size_t>(n, 64));  // repeats
        default:
          return rng.UniformInt(n);
      }
    };
    for (int step = 0; step < 60; ++step) {
      const uint64_t op = rng.UniformInt(4);
      if (op == 0) {
        const size_t i = draw();
        cv.Add(i);
        all.push_back(i);
      } else if (op == 1) {
        std::vector<size_t> batch(1 + rng.UniformInt(9000));
        for (size_t& b : batch) b = draw();
        cv.AddSamples(batch.data(), static_cast<int64_t>(batch.size()));
        all.insert(all.end(), batch.begin(), batch.end());
      } else if (op == 2) {
        const size_t i = draw();
        EXPECT_EQ(cv[i], std::count(all.begin(), all.end(), i)) << n;
        continue;
      } else {
        const size_t begin = rng.UniformInt(n);
        const Interval iv{begin, begin + rng.UniformInt(n - begin + 1)};
        int64_t expected = 0;
        for (const size_t s : all) expected += iv.Contains(s) ? 1 : 0;
        EXPECT_EQ(cv.IntervalCount(iv), expected) << n;
        continue;
      }
      const size_t distinct = SortedCounts(all).size();
      EXPECT_LE(cv.BufferedCount(), std::max<size_t>(4096, distinct)) << n;
      EXPECT_EQ(cv.total(), static_cast<int64_t>(all.size()));
    }
    EXPECT_EQ(NonZero(cv), SortedCounts(all)) << n;
    EXPECT_EQ(cv.BufferedCount(), 0u);
  }
}

TEST(CountVectorTest, SparseBufferGrowsWithTheDistinctCount) {
  // Past 4096 distinct elements the buffer may grow as large as the merged
  // arrays before it compacts, so a stream of m adds compacts O(log m)
  // times rather than m / 4096.
  const size_t n = size_t{1} << 20;
  CountVector cv = CountVector::Sparse(n);
  size_t compactions = 0;
  size_t before = 0;
  for (size_t i = 0; i < 40000; ++i) {
    cv.Add((i * 7919) % n);
    if (cv.BufferedCount() < before) ++compactions;
    before = cv.BufferedCount();
  }
  EXPECT_LE(compactions, 4u);
  EXPECT_EQ(cv.DistinctCount(), 40000u);
}

TEST(CountVectorTest, DrawnCountsKeepTheDrawTotal) {
  // Dense DrawCounts hands its known total to FromDrawnCounts instead of
  // re-reading the vector: the total must be what a re-read gives, and no
  // count negative.
  Rng gen(12);
  for (const size_t n :
       {size_t{1} << 10, size_t{1} << 16, (size_t{1} << 18) + 5}) {
    const Distribution dist =
        MakeRandomKHistogram(n, 8, gen).value().ToDistribution().value();
    DistributionOracle oracle(dist, n);
    for (const int64_t m : {static_cast<int64_t>(n / 8),
                            static_cast<int64_t>(20 * n)}) {
      const CountVector cv = oracle.DrawCounts(m);
      ASSERT_FALSE(cv.is_sparse());
      EXPECT_EQ(cv.total(), m);
      EXPECT_EQ(CountVector::FromCounts(cv.counts()).total(), m);
    }
  }
}

}  // namespace
}  // namespace histest
