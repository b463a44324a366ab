// Race-condition stress tests for the concurrent trial harness. These run
// in every build, but their reason for existing is the TSan CI job
// (HISTEST_SANITIZER=tsan): they are shaped to maximize cross-thread
// interleavings around the harness's two synchronization contracts —
//   1. ThreadPool/ParallelFor: every index runs exactly once and all
//      effects are visible to the caller when Run() returns;
//   2. EstimateAcceptanceParallel: under concurrent trial failures, the
//      lowest-index failing trial's Status is what comes back, exactly
//      once, regardless of how many trials fail or in what order.
// plus the shared-table contract of DistributionOracle: oracles on several
// threads read one immutable AliasSampler, dense DrawCounts included (whose
// multi-block draws nest their own pool runs), and so do the wide-domain Z
// statistic sweeps.

#include "benchutil/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dist/generators.h"
#include "dist/interval.h"
#include "dist/sampler.h"
#include "stats/zstat.h"
#include "testing/oracle.h"
#include "testing/uniformity.h"

namespace histest {
namespace {

/// Replicates EstimateAcceptanceParallel's documented seed derivation:
/// per-trial (oracle, tester) seed pairs drawn sequentially from Rng(seed).
std::vector<std::pair<uint64_t, uint64_t>> TrialSeeds(uint64_t seed,
                                                      int trials) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> seeds(
      static_cast<size_t>(trials));
  for (auto& s : seeds) {
    s.first = rng.Next();
    s.second = rng.Next();
  }
  return seeds;
}

/// Fails iff its seed satisfies a predicate; the failure message embeds the
/// seed so the test can tell *which* trial's status was propagated. Spins
/// briefly before failing so that failing and succeeding trials overlap in
/// time (more interleavings for TSan to explore).
class SeedKeyedFailingTester : public DistributionTester {
 public:
  SeedKeyedFailingTester(uint64_t seed, uint64_t fail_modulus,
                         std::atomic<int>* failures)
      : seed_(seed), fail_modulus_(fail_modulus), failures_(failures) {}

  std::string Name() const override { return "seed-keyed-failing"; }

  Result<TestOutcome> Test(SampleOracle& oracle) override {
    // Touch the oracle from every trial concurrently: shared immutable
    // sampler tables must be readable without synchronization.
    volatile size_t sink = 0;
    for (int i = 0; i < 64; ++i) sink = oracle.Draw();
    (void)sink;
    if (seed_ % fail_modulus_ == 0) {
      failures_->fetch_add(1, std::memory_order_relaxed);
      return Status::FailedPrecondition("injected failure for seed " +
                                        std::to_string(seed_));
    }
    TestOutcome outcome;
    outcome.verdict = Verdict::kAccept;
    outcome.samples_used = oracle.SamplesDrawn();
    return outcome;
  }

 private:
  uint64_t seed_;
  uint64_t fail_modulus_;
  std::atomic<int>* failures_;
};

TEST(TsanStressTest, ParallelForVisibilityUnderChurn) {
  // Many short regions back to back: the pool's task hand-off and
  // completion signalling run constantly while workers from the previous
  // region may still be retiring.
  for (int round = 0; round < 200; ++round) {
    std::vector<int64_t> out(257, -1);
    ParallelFor(static_cast<int64_t>(out.size()), 8,
                [&](int64_t i) { out[static_cast<size_t>(i)] = i * i; });
    // Plain (non-atomic) reads: Run() returning must establish
    // happens-before with every job's writes, or TSan flags this.
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int64_t>(i * i));
    }
  }
}

TEST(TsanStressTest, ConcurrentSubmittersShareOnePool) {
  // Several external threads drive the shared pool at once; each checks
  // only its own output slots.
  constexpr int kSubmitters = 4;
  std::vector<std::thread> submitters;
  std::atomic<int> mismatches{0};
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([s, &mismatches]() {
      for (int round = 0; round < 50; ++round) {
        std::vector<int> hits(101, 0);
        ParallelFor(static_cast<int64_t>(hits.size()), 4,
                    [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
        for (int h : hits) {
          if (h != 1) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        (void)s;
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(TsanStressTest, FirstFailingTrialStatusPropagatedExactlyOnce) {
  constexpr uint64_t kSeed = 2023;
  constexpr int kTrials = 64;
  constexpr uint64_t kModulus = 3;  // roughly a third of the trials fail
  const auto seeds = TrialSeeds(kSeed, kTrials);

  // The contract: the status that comes back is the lowest-index failing
  // trial's, independent of scheduling.
  int expected_index = -1;
  for (int t = 0; t < kTrials; ++t) {
    if (seeds[static_cast<size_t>(t)].second % kModulus == 0) {
      expected_index = t;
      break;
    }
  }
  ASSERT_NE(expected_index, -1) << "modulus produced no failing trial";
  const std::string expected_message =
      "injected failure for seed " +
      std::to_string(seeds[static_cast<size_t>(expected_index)].second);

  for (int round = 0; round < 20; ++round) {
    std::atomic<int> failures{0};
    const SeededTesterFactory factory = [&failures, kModulus](uint64_t seed) {
      return std::make_unique<SeedKeyedFailingTester>(seed, kModulus,
                                                      &failures);
    };
    auto result = EstimateAcceptanceParallel(
        factory, Distribution::UniformOver(128), kTrials, kSeed, 8);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    // Exactly the first failing trial's status — never a later trial's,
    // never a merged or generic one.
    EXPECT_EQ(result.status().message(), expected_message);
    // The early-exit flag may spare some trials, but at least the winner
    // failed, and failures were counted once per failing trial (no replay).
    EXPECT_GE(failures.load(), 1);
    EXPECT_LE(failures.load(), kTrials);
  }
}

TEST(TsanStressTest, EstimateAcceptanceParallelConcurrentCallers) {
  // Two estimator sweeps run on the same shared pool from different
  // threads; both must match the serial result bit-for-bit.
  const auto dist = Distribution::UniformOver(256);
  const SeededTesterFactory factory = [](uint64_t seed) {
    return std::make_unique<PaninskiUniformityTester>(0.25, PaninskiOptions{},
                                                      seed);
  };
  auto serial = EstimateAcceptance(factory, dist, 16, 7);
  ASSERT_TRUE(serial.ok());

  std::vector<Result<TrialStats>> results(4, Result<TrialStats>(TrialStats{}));
  std::vector<std::thread> callers;
  callers.reserve(results.size());
  for (size_t c = 0; c < results.size(); ++c) {
    callers.emplace_back([&, c]() {
      results[c] = EstimateAcceptanceParallel(factory, dist, 16, 7, 6);
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.value().accept_rate, serial.value().accept_rate);
    EXPECT_DOUBLE_EQ(r.value().avg_samples, serial.value().avg_samples);
  }
}

TEST(TsanStressTest, DenseDrawCountsShareOneAliasTable) {
  // Dense DrawCounts reads the shared sampler from every oracle at once
  // (the count-level path keeps all of its state per call). Each thread
  // must get exactly what a lone oracle with its seed gets. Above one
  // block (n = 3 blocks + 5, and 2^16) each draw runs its blocks on the
  // shared pool, so the two callers' nested pool runs share its workers.
  // Zipf has the per-element alias table (column pass); the k-histogram is
  // stored by level (level pass).
  Rng gen(70);
  std::vector<std::pair<Distribution, int>> cases;
  for (const auto& [n, rounds] :
       {std::pair<size_t, int>{4096, 10},
        std::pair<size_t, int>{3 * AliasSampler::kColumnBlock + 5, 5},
        std::pair<size_t, int>{1 << 16, 3}}) {
    cases.emplace_back(MakeZipf(n, 1.0).value(), rounds);
    cases.emplace_back(
        MakeRandomKHistogram(n, 8, gen).value().ToDistribution().value(),
        rounds);
  }
  for (const auto& [dist, rounds] : cases) {
    const auto n = static_cast<int64_t>(dist.size());
    const auto shared = std::make_shared<const AliasSampler>(dist);
    const std::vector<int64_t> counts = {n / 8, 6 * n, 20 * n};
    const auto draw_all = [&](uint64_t seed) {
      DistributionOracle oracle(shared, seed);
      std::vector<CountVector> out;
      for (int round = 0; round < rounds; ++round) {
        for (const int64_t m : counts) out.push_back(oracle.DrawCounts(m));
      }
      return out;
    };
    const std::vector<CountVector> alone_a = draw_all(71);
    const std::vector<CountVector> alone_b = draw_all(72);
    std::vector<CountVector> got_a, got_b;
    std::thread ta([&]() { got_a = draw_all(71); });
    std::thread tb([&]() { got_b = draw_all(72); });
    ta.join();
    tb.join();
    ASSERT_EQ(got_a.size(), alone_a.size());
    ASSERT_EQ(got_b.size(), alone_b.size());
    for (size_t i = 0; i < got_a.size(); ++i) {
      ASSERT_FALSE(got_a[i].is_sparse());
      EXPECT_EQ(got_a[i].counts(), alone_a[i].counts()) << n << " " << i;
      EXPECT_EQ(got_b[i].counts(), alone_b[i].counts()) << n << " " << i;
    }
  }
}

TEST(TsanStressTest, WideZStatisticsAndSparseCountsShareOnePool) {
  // At n = 2^18 ComputeZStatistics runs its kernel blocks on the shared
  // pool, between dense draws that run theirs there too, and sparse
  // DrawCounts compacts by radix sort. Two callers doing all of it at once
  // (two pooled trials on a wide domain) must each get what they get alone.
  const size_t n = size_t{1} << 18;
  Rng gen(80);
  const Distribution dist =
      MakeRandomKHistogram(n, 8, gen).value().ToDistribution().value();
  const auto shared = std::make_shared<const AliasSampler>(dist);
  const Partition partition = Partition::EquiWidth(n, 48);
  const auto run = [&](uint64_t seed) {
    DistributionOracle oracle(shared, seed);
    std::vector<uint64_t> out;
    for (int round = 0; round < 3; ++round) {
      const CountVector sparse =
          oracle.DrawCounts(static_cast<int64_t>(n / 16));
      const CountVector dense = oracle.DrawCounts(static_cast<int64_t>(4 * n));
      for (const CountVector* counts : {&sparse, &dense}) {
        const auto m = static_cast<double>(counts->total());
        const auto z =
            ComputeZStatistics(*counts, m, dist.pmf(), partition, 0.25);
        EXPECT_TRUE(z.ok());
        if (!z.ok()) return out;
        for (const double zj : z.value().z) {
          out.push_back(std::bit_cast<uint64_t>(zj));
        }
      }
      out.push_back(sparse.DistinctCount());
    }
    return out;
  };
  const std::vector<uint64_t> alone_a = run(81);
  const std::vector<uint64_t> alone_b = run(82);
  std::vector<uint64_t> got_a, got_b;
  std::thread ta([&]() { got_a = run(81); });
  std::thread tb([&]() { got_b = run(82); });
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, alone_a);
  EXPECT_EQ(got_b, alone_b);
}

}  // namespace
}  // namespace histest
