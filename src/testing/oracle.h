#ifndef HISTEST_TESTING_ORACLE_H_
#define HISTEST_TESTING_ORACLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dist/distribution.h"
#include "dist/piecewise.h"
#include "dist/sampler.h"
#include "testing/tester.h"

namespace histest {

/// Oracle backed by an explicit distribution (AliasSampler: a per-element
/// alias table, or, for a pmf with at most AliasSampler::kMaxLevels distinct
/// values, an index by level).
///
/// The sampler tables are immutable and held by shared_ptr, so many oracles
/// (e.g. the parallel trials of EstimateAcceptanceParallel) can share one
/// O(n) table instead of each rebuilding it; only the Rng stream is
/// per-oracle state.
///
/// Draw, DrawBatch and sparse-shaped DrawCounts are stream-identical to
/// repeated Draw() calls. A dense-shaped DrawCounts (count >= n/8, see
/// CountVector::ShapedFor) on the AliasSampler backend is drawn at the
/// count level by AliasSampler::AddCounts: O(n) work, an exact multinomial
/// over the same pmf, but a different use of the Rng stream (one Poisson
/// draw per element by level, or per alias column). Above
/// AliasSampler::kColumnBlock elements that call runs blocks on the shared
/// ThreadPool from Rngs forked off this oracle's stream; the counts still
/// depend on the seed alone. The piecewise backend always uses the stream.
class DistributionOracle : public SampleOracle {
 public:
  DistributionOracle(const Distribution& dist, uint64_t seed);

  /// Succinct variant: samples a piecewise-constant distribution without
  /// densifying (the piecewise function is normalized internally).
  DistributionOracle(const PiecewiseConstant& pwc, uint64_t seed);

  /// Shares a prebuilt sampler (no O(n) construction). The draws for a
  /// given seed are identical to the table-owning constructors'.
  DistributionOracle(std::shared_ptr<const AliasSampler> sampler,
                     uint64_t seed);
  DistributionOracle(std::shared_ptr<const PiecewiseSampler> sampler,
                     uint64_t seed);

  size_t DomainSize() const override { return domain_size_; }
  size_t Draw() override;
  void DrawBatch(size_t* out, int64_t count) override;
  CountVector DrawCounts(int64_t count) override;
  int64_t SamplesDrawn() const override { return drawn_; }

 private:
  size_t domain_size_;
  // Exactly one of the two samplers is engaged.
  std::shared_ptr<const AliasSampler> alias_;
  std::shared_ptr<const PiecewiseSampler> piecewise_;
  Rng rng_;
  int64_t drawn_ = 0;
};

/// Oracle replaying a fixed sample sequence, cycling when exhausted (and
/// recording how many times it wrapped). Used for replay determinism and
/// failure-injection tests.
class FixedSampleOracle : public SampleOracle {
 public:
  FixedSampleOracle(size_t domain_size, std::vector<size_t> samples);

  size_t DomainSize() const override { return domain_size_; }
  size_t Draw() override;
  int64_t SamplesDrawn() const override { return drawn_; }

  /// Number of times the sequence was exhausted and restarted.
  int64_t wraps() const { return wraps_; }

 private:
  size_t domain_size_;
  std::vector<size_t> samples_;
  size_t cursor_ = 0;
  int64_t drawn_ = 0;
  int64_t wraps_ = 0;
};

/// Adversarial oracle that always returns the same element — not an iid
/// source at all. Testers must remain well-defined (terminate with some
/// verdict) under such misbehaving inputs; used in failure-injection tests.
class ConstantOracle : public SampleOracle {
 public:
  ConstantOracle(size_t domain_size, size_t element);

  size_t DomainSize() const override { return domain_size_; }
  size_t Draw() override {
    ++drawn_;
    return element_;
  }
  int64_t SamplesDrawn() const override { return drawn_; }

 private:
  size_t domain_size_;
  size_t element_;
  int64_t drawn_ = 0;
};

}  // namespace histest

#endif  // HISTEST_TESTING_ORACLE_H_
