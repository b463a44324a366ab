#include "dist/distribution.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace histest {

Distribution::Distribution(const Distribution& other) : pmf_(other.pmf_) {}

Distribution& Distribution::operator=(const Distribution& other) {
  if (this == &other) return *this;
  pmf_ = other.pmf_;
  delete prefix_index_.exchange(nullptr, std::memory_order_acq_rel);
  return *this;
}

Distribution::Distribution(Distribution&& other) noexcept
    : pmf_(std::move(other.pmf_)),
      prefix_index_(
          other.prefix_index_.exchange(nullptr, std::memory_order_acq_rel)) {}

Distribution& Distribution::operator=(Distribution&& other) noexcept {
  if (this == &other) return *this;
  pmf_ = std::move(other.pmf_);
  delete prefix_index_.exchange(
      other.prefix_index_.exchange(nullptr, std::memory_order_acq_rel),
      std::memory_order_acq_rel);
  return *this;
}

Distribution::~Distribution() {
  delete prefix_index_.load(std::memory_order_acquire);
}

// Lock-free lazy publication; see the prefix_index_ member comment in
// distribution.h for the full release/acquire contract. The fast path is
// one acquire load — adding a mutex (even the annotated wrapper) would put
// a lock acquisition on every PrefixIndex() call from every trial worker.
// No HISTEST_NO_THREAD_SAFETY_ANALYSIS is needed: the function touches no
// capability, so the analysis has nothing to (wrongly) flag.
const PrefixMassIndex& Distribution::PrefixIndex() const {
  const PrefixMassIndex* existing =
      prefix_index_.load(std::memory_order_acquire);
  if (existing != nullptr) return *existing;
  const auto* built = new PrefixMassIndex(pmf_);
  const PrefixMassIndex* expected = nullptr;
  // Success order acq_rel: *release* so the built index's contents are
  // visible to any thread that sees the pointer, *acquire* so the winner
  // also synchronizes with any concurrent publication attempt. Failure
  // order acquire: `expected` then points at the winner's fully built copy.
  if (!prefix_index_.compare_exchange_strong(expected, built,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
    delete built;  // another thread published first; contents are identical
    return *expected;
  }
  return *built;
}

Result<Distribution> Distribution::Create(std::vector<double> pmf) {
  if (pmf.empty()) {
    return Status::InvalidArgument("pmf must be non-empty");
  }
  for (double p : pmf) {
    if (!(p >= 0.0) || !std::isfinite(p)) {
      return Status::InvalidArgument("pmf entries must be finite and >= 0");
    }
  }
  const double total = SumOf(pmf);
  // Finite entries can still sum past DBL_MAX, and a NaN total passes any
  // comparison.
  if (!std::isfinite(total) || std::fabs(total - 1.0) > kMassTolerance) {
    return Status::InvalidArgument("pmf must sum to 1 (got " +
                                   std::to_string(total) + ")");
  }
  for (double& p : pmf) p /= total;
  return Distribution(std::move(pmf));
}

Result<Distribution> Distribution::FromWeights(std::vector<double> weights) {
  if (weights.empty()) {
    return Status::InvalidArgument("weights must be non-empty");
  }
  for (double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument("weights must be finite and >= 0");
    }
  }
  const double total = SumOf(weights);
  if (!std::isfinite(total) || total <= 0.0) {
    return Status::InvalidArgument("weights must have a finite positive total");
  }
  for (double& w : weights) w /= total;
  return Distribution(std::move(weights));
}

Distribution Distribution::UniformOver(size_t n) {
  HISTEST_CHECK_GT(n, 0u);
  return Distribution(std::vector<double>(n, 1.0 / static_cast<double>(n)));
}

Distribution Distribution::PointMass(size_t n, size_t i) {
  HISTEST_CHECK_GT(n, 0u);
  HISTEST_CHECK_LT(i, n);
  std::vector<double> pmf(n, 0.0);
  pmf[i] = 1.0;
  return Distribution(std::move(pmf));
}

double Distribution::MassOf(const Interval& interval) const {
  HISTEST_CHECK_LE(interval.end, pmf_.size());
  KahanSum acc;
  for (size_t i = interval.begin; i < interval.end; ++i) acc.Add(pmf_[i]);
  return acc.Total();
}

std::vector<double> Distribution::Cdf() const {
  // The prefix index stores exactly the inclusive prefix sums shifted by
  // one (same compensated order as the previous PrefixSums call), so this
  // both reuses and warms the shared index.
  const PrefixMassIndex& index = PrefixIndex();
  std::vector<double> cdf(pmf_.size());
  for (size_t i = 0; i < pmf_.size(); ++i) cdf[i] = index.Prefix(i + 1);
  if (!cdf.empty()) cdf.back() = 1.0;
  return cdf;
}

double Distribution::MaxProbability() const {
  return *std::max_element(pmf_.begin(), pmf_.end());
}

size_t Distribution::SupportSize() const {
  size_t count = 0;
  for (double p : pmf_) count += (p > 0.0) ? 1 : 0;
  return count;
}

Result<Distribution> Distribution::ConditionedOn(
    const std::vector<Interval>& intervals) const {
  std::vector<double> pmf(pmf_.size(), 0.0);
  for (const Interval& iv : intervals) {
    if (iv.end > pmf_.size()) {
      return Status::OutOfRange("interval " + iv.ToString() +
                                " exceeds domain");
    }
    for (size_t i = iv.begin; i < iv.end; ++i) pmf[i] = pmf_[i];
  }
  return FromWeights(std::move(pmf));
}

}  // namespace histest
