#include "testing/oracle.h"

#include <algorithm>

#include "common/check.h"
#include "obs/obs.h"
#include "obs/names.h"

namespace histest {

DistributionOracle::DistributionOracle(const Distribution& dist, uint64_t seed)
    : domain_size_(dist.size()),
      alias_(std::make_shared<const AliasSampler>(dist)),
      rng_(seed) {}

DistributionOracle::DistributionOracle(const PiecewiseConstant& pwc,
                                       uint64_t seed)
    : domain_size_(pwc.domain_size()),
      piecewise_(std::make_shared<const PiecewiseSampler>(pwc)),
      rng_(seed) {}

DistributionOracle::DistributionOracle(
    std::shared_ptr<const AliasSampler> sampler, uint64_t seed)
    : domain_size_(0), alias_(std::move(sampler)), rng_(seed) {
  HISTEST_CHECK(alias_ != nullptr);
  domain_size_ = alias_->size();
}

DistributionOracle::DistributionOracle(
    std::shared_ptr<const PiecewiseSampler> sampler, uint64_t seed)
    : domain_size_(0), piecewise_(std::move(sampler)), rng_(seed) {
  HISTEST_CHECK(piecewise_ != nullptr);
  domain_size_ = piecewise_->domain_size();
}

size_t DistributionOracle::Draw() {
  ++drawn_;
  if (alias_ != nullptr) return alias_->Sample(rng_);
  return piecewise_->Sample(rng_);
}

void DistributionOracle::DrawBatch(size_t* out, int64_t count) {
  HISTEST_CHECK_GE(count, 0);
  HISTEST_DCHECK(out != nullptr || count == 0);
  if (alias_ != nullptr) {
    alias_->SampleBatch(rng_, out, count);
  } else {
    piecewise_->SampleBatch(rng_, out, count);
  }
  drawn_ += count;
  // Batch-level accounting only: Draw() stays uninstrumented so the scalar
  // hot path is untouched, and drawn_ remains the ground truth the per-stage
  // counters are checked against.
  obs::AddCount(obs::names::kOracleBatchSamples, count);
  obs::AddCount(obs::names::kOracleBatches, 1);
}

CountVector DistributionOracle::DrawCounts(int64_t count) {
  HISTEST_CHECK_GE(count, 0);
  drawn_ += count;
  obs::AddCount(obs::names::kOracleCountsSamples, count);
  const bool sparse = CountVector::PrefersSparse(domain_size_, count);
  obs::AddCount(sparse ? obs::names::kOracleCountsSparse
                       : obs::names::kOracleCountsDense,
                1);
  if (!sparse && alias_ != nullptr) {
    // Dense storage costs O(n) anyway: draw the whole count vector at the
    // count level in O(n) too, an exact multinomial over the alias table.
    std::vector<int64_t> counts(domain_size_, 0);
    alias_->AddCounts(rng_, count, counts.data());
    // AddCounts writes exactly `count` draws, none of them negative, so the
    // vector is adopted without a second read.
    return CountVector::FromDrawnCounts(std::move(counts), count);
  }
  // Sample in cache-resident chunks straight off the shared tables; the
  // stream (and hence the counts) is identical to `count` Draw() calls.
  CountVector cv = CountVector::ShapedFor(domain_size_, count);
  constexpr int64_t kChunk = 4096;
  size_t buffer[kChunk];
  int64_t left = count;
  while (left > 0) {
    const int64_t c = std::min(left, kChunk);
    if (alias_ != nullptr) {
      alias_->SampleBatch(rng_, buffer, c);
    } else {
      piecewise_->SampleBatch(rng_, buffer, c);
    }
    cv.AddSamples(buffer, c);
    left -= c;
  }
  return cv;
}

FixedSampleOracle::FixedSampleOracle(size_t domain_size,
                                     std::vector<size_t> samples)
    : domain_size_(domain_size), samples_(std::move(samples)) {
  HISTEST_CHECK_GT(domain_size_, 0u);
  HISTEST_CHECK(!samples_.empty());
  for (size_t s : samples_) HISTEST_CHECK_LT(s, domain_size_);
}

size_t FixedSampleOracle::Draw() {
  ++drawn_;
  const size_t s = samples_[cursor_];
  if (++cursor_ == samples_.size()) {
    cursor_ = 0;
    ++wraps_;
  }
  return s;
}

ConstantOracle::ConstantOracle(size_t domain_size, size_t element)
    : domain_size_(domain_size), element_(element) {
  HISTEST_CHECK_LT(element_, domain_size_);
}

}  // namespace histest
