/// Equivalence guarantees of the batched sampling pipeline: batched draws
/// are stream-identical to scalar draws, sparse DrawCounts are
/// stream-identical to per-sample counting (dense alias ones are exact in
/// distribution instead, see test_sampler.cc), sparse count vectors are
/// observation-identical to dense ones, and over one sample stream the
/// end-to-end tester verdicts do not depend on the storage mode.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "core/approx_part.h"
#include "core/histogram_tester.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "stats/collision.h"
#include "stats/zstat.h"
#include "testing/oracle.h"

namespace histest {
namespace {

/// The sample-stream reference: DistributionOracle's draws, counted one
/// Draw() at a time by the base-class DrawCounts into the storage
/// CountVector::ShapedFor picks (sparse or dense).
class StreamOracle : public SampleOracle {
 public:
  StreamOracle(const Distribution& dist, uint64_t seed) : inner_(dist, seed) {}

  size_t DomainSize() const override { return inner_.DomainSize(); }
  size_t Draw() override { return inner_.Draw(); }
  void DrawBatch(size_t* out, int64_t count) override {
    inner_.DrawBatch(out, count);
  }
  int64_t SamplesDrawn() const override { return inner_.SamplesDrawn(); }

 private:
  DistributionOracle inner_;
};

/// The same stream, always counted into dense storage.
class ScalarDenseOracle : public StreamOracle {
 public:
  using StreamOracle::StreamOracle;

  CountVector DrawCounts(int64_t count) override {
    CountVector cv(DomainSize());
    for (int64_t i = 0; i < count; ++i) cv.Add(Draw());
    return cv;
  }
};

TEST(BatchedDrawTest, AliasBatchIsStreamIdenticalToScalar) {
  Rng gen(17);
  const auto dist = MakeZipf(512, 1.0).value();
  DistributionOracle scalar(dist, 1234);
  DistributionOracle batched(dist, 1234);
  std::vector<size_t> batch(777);
  batched.DrawBatch(batch.data(), 777);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i], scalar.Draw()) << "position " << i;
  }
  EXPECT_EQ(batched.SamplesDrawn(), scalar.SamplesDrawn());
  // Continuing after a batch stays in lockstep.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(batched.Draw(), scalar.Draw());
}

TEST(BatchedDrawTest, PiecewiseBatchIsStreamIdenticalToScalar) {
  Rng gen(19);
  const auto pwc = MakeRandomKHistogram(1 << 12, 6, gen).value();
  DistributionOracle scalar(pwc, 55);
  DistributionOracle batched(pwc, 55);
  std::vector<size_t> batch(500);
  batched.DrawBatch(batch.data(), 500);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i], scalar.Draw()) << "position " << i;
  }
}

TEST(BatchedDrawTest, BulkDrawCountsMatchesBaseImplementation) {
  // Sparse shapes (m < 300/8) and the piecewise backend stay bit-identical
  // to the base-class (per-Draw) counts; dense alias shapes are drawn at
  // the count level, so there only the total and the accounting match.
  Rng gen(23);
  const auto dist = MakeZipf(300, 0.8).value();
  const auto pwc = MakeRandomKHistogram(300, 5, gen).value();
  for (int backend = 0; backend < 2; ++backend) {
    auto make = [&](uint64_t seed) {
      return backend == 0 ? DistributionOracle(dist, seed)
                          : DistributionOracle(pwc, seed);
    };
    for (const int64_t m :
         {int64_t{0}, int64_t{10}, int64_t{36}, int64_t{37}, int64_t{5000}}) {
      DistributionOracle bulk = make(99);
      DistributionOracle scalar = make(99);
      const CountVector a = bulk.DrawCounts(m);
      // Explicitly invoke the base-class (per-Draw) implementation.
      const CountVector b = scalar.SampleOracle::DrawCounts(m);
      ASSERT_EQ(a.total(), m);
      ASSERT_EQ(a.total(), b.total());
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(a.is_sparse(), b.is_sparse());
      EXPECT_EQ(bulk.SamplesDrawn(), scalar.SamplesDrawn());
      if (backend == 0 && !a.is_sparse()) continue;
      for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    }
  }
}

TEST(SharedSamplerTest, SharedTableGivesIdenticalStream) {
  const auto dist = MakeZipf(256, 1.2).value();
  const auto shared = std::make_shared<const AliasSampler>(dist);
  DistributionOracle owning(dist, 777);
  DistributionOracle shared_a(shared, 777);
  DistributionOracle shared_b(shared, 777);
  for (int i = 0; i < 2000; ++i) {
    const size_t s = owning.Draw();
    EXPECT_EQ(shared_a.Draw(), s);
    EXPECT_EQ(shared_b.Draw(), s);
  }
}

CountVector MakeSparseCopy(const CountVector& dense) {
  CountVector sparse = CountVector::Sparse(dense.size());
  for (size_t i = 0; i < dense.size(); ++i) {
    for (int64_t c = 0; c < dense[i]; ++c) sparse.Add(i);
  }
  return sparse;
}

TEST(SparseCountsTest, AllQueriesMatchDense) {
  Rng rng(31);
  const size_t n = 600;
  CountVector dense(n);
  for (int s = 0; s < 900; ++s) {
    dense.Add(static_cast<size_t>(rng.UniformInt(n)));
  }
  const CountVector sparse = MakeSparseCopy(dense);
  ASSERT_TRUE(sparse.is_sparse());
  ASSERT_FALSE(dense.is_sparse());
  EXPECT_EQ(sparse.total(), dense.total());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(sparse[i], dense[i]);
  EXPECT_EQ(sparse.DistinctCount(), dense.DistinctCount());
  EXPECT_EQ(sparse.CollisionPairs(), dense.CollisionPairs());
  EXPECT_EQ(sparse.IntervalCount({17, 430}), dense.IntervalCount({17, 430}));
  const Partition partition = Partition::EquiWidth(n, 13);
  EXPECT_EQ(sparse.IntervalCounts(partition),
            dense.IntervalCounts(partition));
  const auto ed = dense.ToEmpirical();
  const auto es = sparse.ToEmpirical();
  ASSERT_TRUE(ed.ok());
  ASSERT_TRUE(es.ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(es.value()[i], ed.value()[i]) << i;  // bit-identical
  }
}

TEST(SparseCountsTest, StatisticsAreBitIdenticalToDense) {
  Rng rng(37);
  const size_t n = 512;
  CountVector dense(n);
  for (int s = 0; s < 300; ++s) {
    dense.Add(static_cast<size_t>(rng.UniformInt(n)));
  }
  const CountVector sparse = MakeSparseCopy(dense);
  const auto dstar = MakeZipf(n, 1.0).value();
  const Partition partition = Partition::EquiWidth(n, 32);
  const auto zd =
      ComputeZStatistics(dense, 300.0, dstar.pmf(), partition, 0.25);
  const auto zs =
      ComputeZStatistics(sparse, 300.0, dstar.pmf(), partition, 0.25);
  ASSERT_TRUE(zd.ok());
  ASSERT_TRUE(zs.ok());
  EXPECT_EQ(zs.value().total, zd.value().total);  // exact, not approximate
  ASSERT_EQ(zs.value().z.size(), zd.value().z.size());
  for (size_t j = 0; j < zd.value().z.size(); ++j) {
    EXPECT_EQ(zs.value().z[j], zd.value().z[j]) << j;
  }
  EXPECT_EQ(RestrictedCollisionStatistic(sparse, {30, 400}),
            RestrictedCollisionStatistic(dense, {30, 400}));
}

TEST(SparseCountsTest, InterleavedAddsAndQueriesCompactCorrectly) {
  CountVector sparse = CountVector::Sparse(100);
  sparse.Add(42);
  EXPECT_EQ(sparse[42], 1);  // query forces a compaction
  sparse.Add(42);
  sparse.Add(7);
  EXPECT_EQ(sparse[42], 2);  // merge with already-compacted entries
  EXPECT_EQ(sparse[7], 1);
  EXPECT_EQ(sparse[8], 0);
  EXPECT_EQ(sparse.total(), 3);
  EXPECT_EQ(sparse.DistinctCount(), 2u);
}

TEST(SparseCountsTest, SubLinearDrawNeverAllocatesDomainSizedBuffer) {
  // Theorem 3.1's regime: m = 1e3 draws over an n = 1e7 domain. The dense
  // representation would be an 80 MB allocation per stage; the sparse one
  // must stay O(m). This test (and the ApproxPartition call below) would
  // time out or thrash if any O(n) buffer were allocated per query.
  const size_t n = 10 * 1000 * 1000;
  const auto pwc = PiecewiseConstant::Flat(n, 1.0 / static_cast<double>(n));
  DistributionOracle oracle(pwc, 2026);
  const int64_t m = 1000;
  const CountVector counts = oracle.DrawCounts(m);
  ASSERT_TRUE(counts.is_sparse());
  EXPECT_EQ(counts.total(), m);
  EXPECT_LE(counts.DistinctCount(), static_cast<size_t>(m));
  EXPECT_GE(counts.DistinctCount(), static_cast<size_t>(m) / 2);  // few dups
  EXPECT_EQ(counts.IntervalCount({0, n}), m);
  EXPECT_GE(counts.CollisionPairs(), 0);

  // A full pipeline stage in the same regime: ApproxPartition draws
  // O(b log b) << n samples and sweeps only the non-zero entries.
  DistributionOracle stage_oracle(pwc, 4052);
  const auto partition = ApproxPartition(stage_oracle, 64.0);
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition.value().domain_size(), n);
}

TEST(BatchedPipelineTest, HistogramTesterVerdictBitIdenticalToScalarDense) {
  // Over one sample stream, the sparse+dense storage the pipeline picks
  // must reproduce the all-dense pipeline's verdicts, sample counts, and
  // stage reports exactly, for identical seeds.
  Rng gen(5);
  for (const size_t n : {size_t{512}, size_t{2048}}) {
    const auto dist =
        MakeRandomKHistogram(n, 4, gen).value().ToDistribution().value();
    StreamOracle batched(dist, 111);
    ScalarDenseOracle scalar(dist, 111);
    HistogramTester tester_a(4, 0.25, HistogramTesterOptions{}, 222);
    HistogramTester tester_b(4, 0.25, HistogramTesterOptions{}, 222);
    const auto a = tester_a.Test(batched);
    const auto b = tester_b.Test(scalar);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().verdict, b.value().verdict);
    EXPECT_EQ(a.value().samples_used, b.value().samples_used);
    EXPECT_EQ(a.value().detail, b.value().detail);
  }
}

TEST(BatchedPipelineTest, ApproxPartitionMatchesScalarDensePath) {
  Rng gen(11);
  const auto dist =
      MakeRandomKHistogram(4096, 6, gen).value().ToDistribution().value();
  StreamOracle batched(dist, 31);
  ScalarDenseOracle scalar(dist, 31);
  const auto a = ApproxPartition(batched, 100.0);
  const auto b = ApproxPartition(scalar, 100.0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().NumIntervals(), b.value().NumIntervals());
  for (size_t j = 0; j < a.value().NumIntervals(); ++j) {
    EXPECT_EQ(a.value().interval(j), b.value().interval(j)) << j;
  }
}

}  // namespace
}  // namespace histest
