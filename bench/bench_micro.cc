/// E10: microbenchmarks for every hot kernel, backing Theorem 3.1's
/// running-time claim (sqrt(n) poly(log k, 1/eps) + poly(k, 1/eps)): each
/// stage's time is linear in the samples it draws plus small offline work.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "benchutil/parallel.h"
#include "benchutil/workloads.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "core/approx_part.h"
#include "core/histogram_tester.h"
#include "core/learner.h"
#include "dist/generators.h"
#include "dist/sampler.h"
#include "histogram/distance_to_hk.h"
#include "histogram/fit_dp.h"
#include "histogram/fit_merge.h"
#include "histogram/modality.h"
#include "obs/obs.h"
#include "stats/zstat.h"
#include "testing/oracle.h"

namespace histest {
namespace {

/// The two AliasSampler representations get their own rows: Zipf(1) has n
/// distinct values (the per-element alias table), a random 16-histogram
/// has 16 (stored by level).
Distribution ZipfPmf(size_t n) { return MakeZipf(n, 1.0).value(); }

Distribution KHistogramPmf(size_t n) {
  Rng gen(31);
  return MakeRandomKHistogram(n, 16, gen).value().ToDistribution().value();
}

void AliasSampleRow(benchmark::State& state, const Distribution& dist) {
  AliasSampler sampler(dist);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_AliasSample(benchmark::State& state) {
  AliasSampleRow(state, ZipfPmf(static_cast<size_t>(state.range(0))));
}
BENCHMARK(BM_AliasSample)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_AliasSampleKHist(benchmark::State& state) {
  AliasSampleRow(state, KHistogramPmf(static_cast<size_t>(state.range(0))));
}
BENCHMARK(BM_AliasSampleKHist)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_PiecewiseSample(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng gen(5);
  const auto pwc = MakeRandomKHistogram(n, 16, gen).value();
  PiecewiseSampler sampler(pwc);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PiecewiseSample)->Arg(1 << 14)->Arg(1 << 20);

void BM_OracleDrawScalar(benchmark::State& state) {
  // draws/sec through the per-sample virtual Draw() path.
  const size_t n = static_cast<size_t>(state.range(0));
  const auto dist = MakeZipf(n, 1.0).value();
  DistributionOracle oracle(dist, 43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.Draw());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OracleDrawScalar)->Arg(10000)->Arg(1000000);

void BM_OracleDrawBatch(benchmark::State& state) {
  // draws/sec through DrawBatch (one virtual call per 4096 samples).
  const size_t n = static_cast<size_t>(state.range(0));
  const auto dist = MakeZipf(n, 1.0).value();
  DistributionOracle oracle(dist, 43);
  std::vector<size_t> buffer(4096);
  for (auto _ : state) {
    oracle.DrawBatch(buffer.data(), static_cast<int64_t>(buffer.size()));
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(buffer.size()));
}
BENCHMARK(BM_OracleDrawBatch)->Arg(10000)->Arg(1000000);

/// Dense DrawCounts at the count level (DistributionOracle's override)
/// against the base-class stream (one Draw() per sample). Args: n,
/// 8 * count / n (1, 48, 160, 1440: count/n = 1/8, 6, 20, 180), and 1 for
/// the stream. Items are samples. Named outside the `BM_OracleDraw` CI
/// filter on purpose: supporting evidence, not a gated row. BM_OracleCounts
/// runs the column pass (Zipf), BM_OracleCountsKHist the level pass.
void OracleCountsRow(benchmark::State& state, const Distribution& dist) {
  const int64_t count = static_cast<int64_t>(dist.size()) * state.range(1) / 8;
  const bool stream = state.range(2) != 0;
  DistributionOracle oracle(dist, 47);
  for (auto _ : state) {
    const CountVector cv = stream ? oracle.SampleOracle::DrawCounts(count)
                                  : oracle.DrawCounts(count);
    benchmark::DoNotOptimize(cv.total());
  }
  state.SetItemsProcessed(state.iterations() * count);
}

void OracleCountsArgs(benchmark::internal::Benchmark* b) {
  for (const int64_t n : {int64_t{1} << 14, int64_t{1} << 18}) {
    for (const int64_t eighths : {1, 48, 160, 1440}) {
      for (const int64_t stream : {0, 1}) b->Args({n, eighths, stream});
    }
  }
}

void BM_OracleCounts(benchmark::State& state) {
  OracleCountsRow(state, ZipfPmf(static_cast<size_t>(state.range(0))));
}
BENCHMARK(BM_OracleCounts)
    ->Apply(OracleCountsArgs)
    ->Unit(benchmark::kMillisecond);

void BM_OracleCountsKHist(benchmark::State& state) {
  OracleCountsRow(state, KHistogramPmf(static_cast<size_t>(state.range(0))));
}
BENCHMARK(BM_OracleCountsKHist)
    ->Apply(OracleCountsArgs)
    ->Unit(benchmark::kMillisecond);

/// Sparse DrawCounts as ApproxPart runs it on `wide-domain`: m = 24,446
/// draws over n = 2^18 from a level pmf, then one ForEachNonZero walk, so
/// the row covers the draws, the buffer's compactions and the final merge.
/// Outside the CI filter: supporting evidence, not a gated row.
void BM_SparseDrawCounts(benchmark::State& state) {
  const size_t n = size_t{1} << 18;
  const int64_t count = state.range(0);
  DistributionOracle oracle(KHistogramPmf(n), 53);
  for (auto _ : state) {
    const CountVector cv = oracle.DrawCounts(count);
    int64_t distinct = 0;
    cv.ForEachNonZero([&](size_t, int64_t) { ++distinct; });
    benchmark::DoNotOptimize(distinct);
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_SparseDrawCounts)->Arg(24446)->Unit(benchmark::kMillisecond);

/// The E1 workload at tester scale: k=5 in-class random histograms, the
/// acceptance harness run for a fixed trial count over one shared alias
/// table. Reported counter: trials per second.
void BM_TrialsBatchedShared(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng gen(29);
  const auto dist =
      MakeRandomKHistogram(n, 5, gen).value().ToDistribution().value();
  const int trials = 8;
  const int threads = DefaultBenchThreads();
  const SeededTesterFactory factory = [](uint64_t seed) {
    return std::make_unique<HistogramTester>(
        5, 0.25, HistogramTesterOptions{}, seed);
  };
  int64_t done = 0;
  for (auto _ : state) {
    auto stats =
        EstimateAcceptanceParallel(factory, dist, trials, 4242, threads);
    benchmark::DoNotOptimize(stats);
    done += trials;
  }
  state.SetItemsProcessed(done);
  state.counters["trials_per_sec"] = benchmark::Counter(
      static_cast<double>(done), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrialsBatchedShared)
    ->Arg(10000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_PoissonizedCounts(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto dist = Distribution::UniformOver(n);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PoissonizedCounts(dist, 10.0 * static_cast<double>(n), rng));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_PoissonizedCounts)->Arg(1 << 10)->Arg(1 << 14);

void BM_ZStatistic(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto dist = Distribution::UniformOver(n);
  const Partition partition = Partition::EquiWidth(n, n / 16);
  Rng rng(11);
  const double m = 20.0 * std::sqrt(static_cast<double>(n));
  const CountVector counts =
      CountVector::FromCounts(PoissonizedCounts(dist, m, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeZStatistics(counts, m, dist.pmf(), partition, 0.25));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ZStatistic)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_ApproxPart(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto dist = MakeZipf(n, 1.0).value();
  Rng rng(13);
  for (auto _ : state) {
    DistributionOracle oracle(dist, rng.Next());
    benchmark::DoNotOptimize(ApproxPartition(oracle, 128.0));
  }
}
BENCHMARK(BM_ApproxPart)->Arg(1 << 12)->Arg(1 << 16);

void BM_Learner(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto dist = Distribution::UniformOver(n);
  const Partition partition = Partition::EquiWidth(n, 256);
  Rng rng(17);
  for (auto _ : state) {
    DistributionOracle oracle(dist, rng.Next());
    benchmark::DoNotOptimize(
        LearnHistogramChiSquare(oracle, partition, 0.05));
  }
}
BENCHMARK(BM_Learner)->Arg(1 << 12)->Arg(1 << 16);

void BM_FitAtomsL1(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(19);
  std::vector<WeightedAtom> atoms(m);
  for (auto& a : atoms) a = {rng.UniformDouble(), 1.0, 1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitAtomsL1(atoms, 8));
  }
}
BENCHMARK(BM_FitAtomsL1)->Arg(64)->Arg(256)->Arg(1024);

/// Head-to-head for the PR-3 DP rewrite: the pruned fast DP versus the
/// exhaustive O(m^2) segment-cost-table reference, both at the acceptance
/// workload m=4096, k=64 (plus a smaller size for the scaling picture).
///
/// The input mirrors what FitAtomsL1 actually receives from the library's
/// callers (flatten / fit_merge / distance_to_hk): AtomsFromDense output
/// for an empirical k-histogram pmf. Empirical frequencies are rationals
/// on a 1/n grid, so the atoms are 64 plateaus with a few grid steps of
/// per-atom sampling noise — piecewise structure that the pruned DP's
/// cost bound exploits (scans stop after about one optimal piece length)
/// and a small distinct-value set that keeps the rank tree shallow.
/// BM_FitAtomsL1FastAdversarial covers the opposite extreme — iid real
/// values with no piece structure and m distinct ranks, where every prune
/// bound is a near-tie and the scans run long — so both ends of the
/// pruning behavior stay measured.
std::vector<WeightedAtom> MakeDpBenchAtoms(size_t m) {
  Rng rng(23);
  constexpr size_t kPieces = 64;
  constexpr double kGrid = 1.0 / 65536.0;  // n = 64k samples
  std::vector<WeightedAtom> atoms(m);
  double level = 0.0;
  for (size_t i = 0; i < m; ++i) {
    if (i % (m / kPieces) == 0) {
      level = static_cast<double>(rng.UniformInt(256)) * kGrid;
    }
    atoms[i] = {level + static_cast<double>(rng.UniformInt(8)) * kGrid, 1.0,
                1.0};
  }
  return atoms;
}

std::vector<WeightedAtom> MakeDpBenchAtomsAdversarial(size_t m) {
  Rng rng(19);
  std::vector<WeightedAtom> atoms(m);
  for (auto& a : atoms) {
    a = {rng.UniformDouble(), 1.0 + rng.UniformDouble(), 1.0};
  }
  return atoms;
}

void BM_FitAtomsL1Fast(benchmark::State& state) {
  const auto atoms = MakeDpBenchAtoms(static_cast<size_t>(state.range(0)));
  const size_t k = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitAtomsL1(atoms, k));
  }
}
BENCHMARK(BM_FitAtomsL1Fast)
    ->Args({1024, 64})
    ->Args({4096, 64})
    ->Unit(benchmark::kMillisecond);

void BM_FitAtomsL1FastAdversarial(benchmark::State& state) {
  const auto atoms =
      MakeDpBenchAtomsAdversarial(static_cast<size_t>(state.range(0)));
  const size_t k = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitAtomsL1(atoms, k));
  }
}
BENCHMARK(BM_FitAtomsL1FastAdversarial)
    ->Args({4096, 64})
    ->Unit(benchmark::kMillisecond);

void BM_GreedyMerge(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(23);
  std::vector<WeightedAtom> atoms(m);
  for (auto& a : atoms) a = {rng.UniformDouble(), 1.0, 1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyMergeAtoms(atoms, 16));
  }
}
BENCHMARK(BM_GreedyMerge)->Arg(1 << 10)->Arg(1 << 14);

void BM_DistanceToHk(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto zipf = MakeZipf(n, 1.0).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceToHk(zipf, 8));
  }
}
BENCHMARK(BM_DistanceToHk)->Arg(1 << 10)->Arg(1 << 13);

/// Piecewise candidate evaluation (spans + prefix-mass index, no O(n)
/// candidate vectors) on a pmf large enough to coarsen before the DP.
void BM_DistanceToHkFast(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto zipf = MakeZipf(n, 1.0).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceToHk(zipf, 8));
  }
}
BENCHMARK(BM_DistanceToHkFast)
    ->Arg(1 << 13)
    ->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

/// The e2e grid's set-up (MakeWorkloadGrid, `wide-domain`'s n = 2^18, k = 4,
/// eps = 0.25), whose cost is the far candidates' certification.
void BM_WorkloadGrid(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(20230601);
    benchmark::DoNotOptimize(MakeWorkloadGrid(n, 4, 0.25, rng));
  }
}
BENCHMARK(BM_WorkloadGrid)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

void BM_L1DistanceKernel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(47);
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.UniformDouble();
    b[i] = rng.UniformDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(L1DistanceKernel(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_L1DistanceKernel)->Arg(1 << 12)->Arg(1 << 18);

void BM_ChiSquareKernel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(53);
  std::vector<double> p(n), q(n);
  for (size_t i = 0; i < n; ++i) {
    p[i] = rng.UniformDouble();
    q[i] = 0.5 + rng.UniformDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChiSquareKernel(p.data(), q.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ChiSquareKernel)->Arg(1 << 12)->Arg(1 << 18);

void BM_ZAccumulateKernel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(59);
  std::vector<double> dstar(n), counts(n);
  for (size_t i = 0; i < n; ++i) {
    dstar[i] = rng.UniformDouble() / static_cast<double>(n);
    counts[i] = std::floor(rng.UniformDouble() * 8.0);
  }
  const double cut = 0.1 / static_cast<double>(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ZAccumulateKernel(dstar.data(), counts.data(), n, 1e4, cut));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ZAccumulateKernel)->Arg(1 << 12)->Arg(1 << 18);

void BM_RestrictedDistanceToHk(benchmark::State& state) {
  // The Step-10 offline check on a large learned hypothesis (the witness
  // bound + coarsened DP path).
  const size_t pieces = static_cast<size_t>(state.range(0));
  Rng gen(37);
  const auto h = MakeRandomKHistogram(1 << 14, pieces, gen).value();
  const std::vector<Interval> kept = {Interval{0, (1u << 14) * 3 / 4}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(RestrictedDistanceToHkPieces(h, kept, 8));
  }
}
BENCHMARK(BM_RestrictedDistanceToHk)->Arg(256)->Arg(1024)->Arg(4096);

void BM_KModalFitError(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(41);
  std::vector<double> values(m);
  for (auto& v : values) v = rng.UniformDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(KModalFitError(values, 4));
  }
}
BENCHMARK(BM_KModalFitError)->Arg(128)->Arg(512);

void BM_HistogramTesterEndToEnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng gen(29);
  const auto truth = MakeRandomKHistogram(n, 5, gen).value();
  const auto dist = truth.ToDistribution().value();
  Rng rng(31);
  for (auto _ : state) {
    DistributionOracle oracle(dist, rng.Next());
    HistogramTester tester(5, 0.25, HistogramTesterOptions{}, rng.Next());
    auto outcome = tester.Test(oracle);
    benchmark::DoNotOptimize(outcome);
    state.counters["samples"] = static_cast<double>(
        outcome.ok() ? outcome.value().samples_used : 0);
  }
}
BENCHMARK(BM_HistogramTesterEndToEnd)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

// --- Fused single-pass rows vs their materialize-then-reduce baselines.
// Each BM_Fused* row streams the producer's compressed/integer form through
// the reduction once; the paired BM_Materialize* row performs the pre-fusion
// pipeline (expand/convert into an O(n) scratch buffer, then the unfused
// kernel) on the same inputs, so the speedup the fusion buys is read
// directly off one bench JSON.

struct FusedBenchInput {
  std::vector<double> values;  // run values (a k=64 histogram shape)
  std::vector<size_t> ends;    // exclusive run ends
  std::vector<double> b;       // dense comparand
};

FusedBenchInput MakeFusedBenchInput(size_t n) {
  constexpr size_t kRuns = 64;
  FusedBenchInput in;
  Rng rng(67);
  in.values.resize(kRuns);
  in.ends.resize(kRuns);
  for (size_t r = 0; r < kRuns; ++r) {
    in.values[r] = rng.UniformDouble();
    in.ends[r] = (r + 1) * n / kRuns;
  }
  in.ends.back() = n;
  in.b.resize(n);
  for (auto& x : in.b) x = rng.UniformDouble();
  return in;
}

void ExpandRuns(const FusedBenchInput& in, double* out) {
  size_t pos = 0;
  for (size_t r = 0; r < in.values.size(); ++r) {
    for (; pos < in.ends[r]; ++pos) out[pos] = in.values[r];
  }
}

void BM_FusedExpandL1(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const FusedBenchInput in = MakeFusedBenchInput(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FusedExpandL1Kernel(
        in.values.data(), in.ends.data(), in.values.size(), in.b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FusedExpandL1)->Arg(1 << 12)->Arg(1 << 20);

void BM_MaterializeExpandL1(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const FusedBenchInput in = MakeFusedBenchInput(n);
  std::vector<double> scratch(n);
  for (auto _ : state) {
    ExpandRuns(in, scratch.data());
    benchmark::DoNotOptimize(L1DistanceKernel(scratch.data(), in.b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MaterializeExpandL1)->Arg(1 << 12)->Arg(1 << 20);

void BM_FusedExpandL2(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const FusedBenchInput in = MakeFusedBenchInput(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FusedExpandL2Kernel(
        in.values.data(), in.ends.data(), in.values.size(), in.b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FusedExpandL2)->Arg(1 << 12)->Arg(1 << 20);

void BM_MaterializeExpandL2(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const FusedBenchInput in = MakeFusedBenchInput(n);
  std::vector<double> scratch(n);
  for (auto _ : state) {
    ExpandRuns(in, scratch.data());
    benchmark::DoNotOptimize(
        L2DistanceSquaredKernel(scratch.data(), in.b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MaterializeExpandL2)->Arg(1 << 12)->Arg(1 << 20);

struct CountsBenchInput {
  std::vector<int64_t> counts;
  std::vector<double> dstar;  // doubles as the chi-square q
  double cut = 0.0;
};

CountsBenchInput MakeCountsBenchInput(size_t n) {
  CountsBenchInput in;
  Rng rng(71);
  in.counts.resize(n);
  in.dstar.resize(n);
  for (size_t i = 0; i < n; ++i) {
    in.counts[i] = rng.UniformInt(8);
    in.dstar[i] = (0.5 + rng.UniformDouble()) / static_cast<double>(n);
  }
  in.cut = 0.1 / static_cast<double>(n);
  return in;
}

void BM_FusedCountsZ(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const CountsBenchInput in = MakeCountsBenchInput(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FusedCountsZKernel(
        in.dstar.data(), in.counts.data(), n, 1e4, in.cut));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FusedCountsZ)->Arg(1 << 12)->Arg(1 << 20);

void BM_MaterializeCountsZ(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const CountsBenchInput in = MakeCountsBenchInput(n);
  std::vector<double> scratch(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      scratch[i] = static_cast<double>(in.counts[i]);
    }
    benchmark::DoNotOptimize(
        ZAccumulateKernel(in.dstar.data(), scratch.data(), n, 1e4, in.cut));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MaterializeCountsZ)->Arg(1 << 12)->Arg(1 << 20);

void BM_FusedCountsChiSquare(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const CountsBenchInput in = MakeCountsBenchInput(n);
  const double inv_total = 1.0 / (4.0 * static_cast<double>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FusedCountsChiSquareKernel(
        in.counts.data(), inv_total, in.dstar.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FusedCountsChiSquare)->Arg(1 << 12)->Arg(1 << 20);

void BM_MaterializeCountsChiSquare(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const CountsBenchInput in = MakeCountsBenchInput(n);
  const double inv_total = 1.0 / (4.0 * static_cast<double>(n));
  std::vector<double> scratch(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      scratch[i] = static_cast<double>(in.counts[i]) * inv_total;
    }
    benchmark::DoNotOptimize(
        ChiSquareKernel(scratch.data(), in.dstar.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MaterializeCountsChiSquare)->Arg(1 << 12)->Arg(1 << 20);

// --- Observability layer overhead. The disabled-mode numbers are what the
// CI trace gate holds against the kernel benchmarks: a recording entry
// point must cost one relaxed load and a branch when tracing is off.

void BM_ObsCounterAddDisabled(benchmark::State& state) {
  obs::SetEnabled(false);
  for (auto _ : state) {
    obs::AddCount("histest.bench.disabled_counter", 1);
  }
}
BENCHMARK(BM_ObsCounterAddDisabled);

void BM_ObsCounterAddEnabled(benchmark::State& state) {
  obs::SetEnabled(true);
  obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "histest.bench.enabled_counter");
  for (auto _ : state) {
    counter.Add(1);
  }
  obs::SetEnabled(false);
}
BENCHMARK(BM_ObsCounterAddEnabled);

void BM_ObsTraceSpanDisabled(benchmark::State& state) {
  obs::SetEnabled(false);
  for (auto _ : state) {
    obs::TraceSpan span("bench.disabled_span");
    benchmark::DoNotOptimize(span.active());
  }
}
BENCHMARK(BM_ObsTraceSpanDisabled);

void BM_ObsRecorderEventDisabled(benchmark::State& state) {
  // The flight-recorder gate on the metrics fast path: with the recorder
  // off this is one relaxed load and a branch in front of the (also
  // disabled) registry path, held to the same trace-gate budget as the
  // other disabled-mode rows.
  obs::FlightRecorder::SetEnabled(false);
  obs::SetEnabled(false);
  for (auto _ : state) {
    obs::AddCount("histest.bench.disabled_recorder_counter", 1);
  }
}
BENCHMARK(BM_ObsRecorderEventDisabled);

}  // namespace
}  // namespace histest

// Custom main (replacing BENCHMARK_MAIN) so every bench JSON artifact
// carries the full provenance record (git describe, build type, CPU
// features, env knobs, ...) as a JSON-valued context key, so
// tools/histest-obs can refuse to diff bench runs whose load-bearing
// configuration differs.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "histest_manifest", histest::obs::CurrentRunManifest().ToJson());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
