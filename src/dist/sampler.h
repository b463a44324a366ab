#ifndef HISTEST_DIST_SAMPLER_H_
#define HISTEST_DIST_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dist/distribution.h"
#include "dist/piecewise.h"

namespace histest {

/// Walker alias-method sampler: O(n) construction, O(1) per sample. This is
/// the workhorse behind every sample oracle.
class AliasSampler {
 public:
  /// Builds a sampler for the given distribution.
  explicit AliasSampler(const Distribution& dist);

  /// Builds a sampler from raw non-negative weights (normalized internally).
  /// Requires a positive total weight.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Domain size.
  size_t size() const { return prob_.size(); }

  /// Draws one sample.
  size_t Sample(Rng& rng) const;

  /// Draws `count` samples into `out` with one tight loop (no per-sample
  /// call overhead). Stream-identical to `count` repeated Sample() calls.
  void SampleBatch(Rng& rng, size_t* out, int64_t count) const;

  /// Draws `count` samples.
  std::vector<size_t> SampleMany(Rng& rng, size_t count) const;

  /// Writes the counts of `count` iid samples into counts[0, size()),
  /// which must be zero on entry: an exact Multinomial(count, pmf) draw in
  /// O(size() + sqrt(count)) expected time, not O(count). Each column takes
  /// a Poisson(lambda) number of draws, lambda = (count - 3 sqrt(count)) /
  /// size(), split between the column and its alias by the alias coin;
  /// given their total s <= count this is Multinomial(s), and count - s
  /// SampleBatch draws top it up (a pass with s > count is cleared and
  /// redrawn). Not stream-identical to SampleBatch; deterministic for a
  /// given Rng state.
  void AddCounts(Rng& rng, int64_t count, int64_t* counts) const;

  /// Read-only view of the alias table's keep probabilities.
  const std::vector<double>& prob() const { return prob_; }

 private:
  void Build(std::vector<double> weights);

  std::vector<double> prob_;
  std::vector<size_t> alias_;
};

/// Sampler for a succinct piecewise-constant distribution: chooses a piece
/// by mass (alias method over pieces), then an element uniformly within it.
/// O(#pieces) construction, O(1) per sample — never densifies.
class PiecewiseSampler {
 public:
  /// Requires `pwc` to have positive total mass (it is normalized
  /// internally, so sub-probability functions sample their conditional).
  explicit PiecewiseSampler(const PiecewiseConstant& pwc);

  size_t domain_size() const { return domain_size_; }

  size_t Sample(Rng& rng) const;

  /// Batched draws, stream-identical to repeated Sample() calls.
  void SampleBatch(Rng& rng, size_t* out, int64_t count) const;

 private:
  size_t domain_size_;
  std::vector<Interval> piece_intervals_;
  AliasSampler piece_sampler_;
};

/// Draws N_i ~ Poisson(m * D(i)) independently for every element — the
/// Poissonization of drawing Poisson(m) iid samples (Section 2 of the
/// paper). Returns the count vector; O(n) expected time.
std::vector<int64_t> PoissonizedCounts(const Distribution& dist, double m,
                                       Rng& rng);

}  // namespace histest

#endif  // HISTEST_DIST_SAMPLER_H_
