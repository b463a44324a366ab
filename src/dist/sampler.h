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
///
/// It has two representations, picked from the pmf alone. A pmf with at
/// most kMaxLevels distinct positive values over at most 2^32 elements (every
/// k-histogram with k <= 255, and the far instances built around them) is
/// stored by level: a one-byte level per element, the element ids grouped by
/// level, and an alias table over the levels weighted by level mass, about
/// 5 bytes per element. Any other pmf gets the per-element alias table, 16
/// bytes per element.
class AliasSampler {
 public:
  /// Columns (elements) per block of a multi-block AddCounts pass. A block
  /// of the sieve's level pass (m/n about 19) then carries about 50-80 us
  /// of draws, more than a pool dispatch costs, so a domain of 2^14 runs
  /// as four blocks; one of 2^10 stays one block (DESIGN.md, "Column
  /// blocks").
  static constexpr size_t kColumnBlock = size_t{1} << 12;

  /// Most distinct positive pmf values a pmf stored by level may have.
  static constexpr size_t kMaxLevels = 255;

  /// Builds a sampler for the given distribution.
  explicit AliasSampler(const Distribution& dist);

  /// Builds a sampler from raw non-negative weights (normalized internally).
  /// Requires a positive total weight.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Domain size.
  size_t size() const { return size_; }

  /// Number of levels (distinct positive pmf values) when the pmf is
  /// stored by level; 0 for a per-element alias table.
  size_t levels() const { return members_.empty() ? 0 : prob_.size(); }

  /// Draws one sample. Stored by level, it picks a level by mass (alias
  /// method over the levels), then a uniform member of that level.
  size_t Sample(Rng& rng) const;

  /// Draws `count` samples into `out`. Stream-identical to `count` repeated
  /// Sample() calls, which is what it makes when stored by level; the
  /// per-element table is resolved in chunks, an RNG pass then a table pass.
  void SampleBatch(Rng& rng, size_t* out, int64_t count) const;

  /// Draws `count` samples.
  std::vector<size_t> SampleMany(Rng& rng, size_t count) const;

  /// Writes the counts of `count` iid samples into counts[0, size()),
  /// which must be zero on entry: an exact Multinomial(count, pmf) draw in
  /// O(size() + sqrt(count)) expected time, not O(count). A Poissonized
  /// pass with total mean mu = count - 3 sqrt(count) comes first. Stored
  /// by level, element i takes a Poisson(mu p_i) count from its level's
  /// sampler (elements of mass 0 take nothing and consume no randomness).
  /// Otherwise each alias column takes a Poisson(mu / size()) number of
  /// draws, split between the column and its alias by the alias coin.
  /// Either way, given the pass total s <= count the vector is
  /// Multinomial(s, pmf), and count - s more draws top it up (a pass with
  /// s > count is cleared and redrawn). Stored by level, the top-up is one
  /// Multinomial(count - s) over the levels, a Binomial per level on its
  /// share of the mass left, then a uniform member per draw; otherwise it
  /// is count - s SampleBatch draws. Not stream-identical to SampleBatch;
  /// deterministic for a given Rng state. The counts add up to exactly
  /// `count`, and every draw the pass writes is non-negative (a table
  /// index, or an Rng::Poisson draw that is CHECKed), so the caller can
  /// adopt the vector without re-reading it (CountVector::FromDrawnCounts).
  ///
  /// Elements are independent in the pass (Poissonization), so a domain
  /// wider than kColumnBlock is drawn in blocks of kColumnBlock elements on
  /// the shared ThreadPool: one Rng forked from `rng` per block, in block
  /// order (the per-element alias table then scatters the blocks' parked
  /// alias counts serially). The result depends on the Rng state only,
  /// never on the executor count; the top-up draws from `rng` itself. A
  /// domain of one block is drawn serially on `rng`.
  void AddCounts(Rng& rng, int64_t count, int64_t* counts) const;

 private:
  void Build(const std::vector<double>& weights);
  bool BuildLevels(const std::vector<double>& weights);
  // Adds the counts of `count` draws from a pmf stored by level.
  void AddLevelDraws(Rng& rng, int64_t count, int64_t* counts) const;

  size_t size_ = 0;
  // Alias table over the columns: the elements, or the levels when the pmf
  // is stored by level.
  std::vector<double> prob_;
  std::vector<size_t> alias_;
  // By level (all empty for a per-element table): level_[i] is element i's
  // level, or kMaxLevels for mass 0; level_value_[l] is the level's pmf
  // value; members_[level_begin_[l], level_begin_[l + 1]) are its elements.
  std::vector<uint8_t> level_;
  std::vector<double> level_value_;
  std::vector<size_t> level_begin_;
  std::vector<uint32_t> members_;
  // level_split_[l] is level l's share of the mass of levels l and up.
  std::vector<double> level_split_;
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
