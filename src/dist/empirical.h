#ifndef HISTEST_DIST_EMPIRICAL_H_
#define HISTEST_DIST_EMPIRICAL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dist/distribution.h"
#include "dist/interval.h"

namespace histest {

/// A vector of per-element sample counts over [0, n), with interval
/// aggregation helpers. This is the common currency between oracles and the
/// statistics layer.
///
/// Two storage modes with identical observable behaviour:
///  - dense:  an n-slot array (the classic representation);
///  - sparse: a sorted (index, count) list whose footprint is O(#distinct
///            observed elements), so a stage that draws m << n samples never
///            allocates an O(n) buffer.
/// `ShapedFor(n, m)` picks the mode for a planned draw of m samples; every
/// query works on both modes and returns bit-identical results.
class CountVector {
 public:
  /// Zero counts over a size-n domain (dense mode).
  explicit CountVector(size_t n) : n_(n), dense_(n, 0) {}

  /// Zero counts over a size-n domain in sparse mode: storage stays
  /// proportional to the number of distinct observed elements.
  static CountVector Sparse(size_t n);

  /// Picks the representation for a planned draw of `expected_samples`:
  /// sparse when expected_samples < n / kSparseDomainFraction (integer
  /// division), dense otherwise. Every query is bit-identical across
  /// modes, so the cutover moves only storage. Oracles route DrawCounts
  /// through this so the whole pipeline agrees on one policy.
  static CountVector ShapedFor(size_t n, int64_t expected_samples);

  /// The mode ShapedFor(n, expected_samples) picks, without allocating.
  static bool PrefersSparse(size_t n, int64_t expected_samples);

  /// Builds counts from raw samples; every sample must be < n.
  static CountVector FromSamples(size_t n, const std::vector<size_t>& samples);

  /// Adopts a precomputed count vector (e.g., from PoissonizedCounts):
  /// one pass totals it and CHECK-fails on a negative count.
  static CountVector FromCounts(std::vector<int64_t> counts);

  /// Adopts a vector that a count-level draw (AliasSampler::AddCounts) has
  /// just written: `total` draws, each of them non-negative by the pass's
  /// own construction and checks. Nothing is re-read.
  static CountVector FromDrawnCounts(std::vector<int64_t> counts,
                                     int64_t total);

  /// Sparse stays cheaper than dense until m reaches n / this fraction.
  static constexpr int64_t kSparseDomainFraction = 8;

  size_t size() const { return n_; }
  int64_t total() const { return total_; }
  bool is_sparse() const { return sparse_; }
  int64_t operator[](size_t i) const;

  /// Dense-mode raw storage. Check is_sparse() first; sparse vectors have no
  /// dense array to expose (that is their whole point).
  const std::vector<int64_t>& counts() const;

  /// Adds one observation of element i.
  void Add(size_t i);

  /// Adds `count` observations in bulk (the oracle batch path).
  void AddSamples(const size_t* samples, int64_t count);

  /// Sparse observations not yet merged into the sorted arrays. Add and
  /// AddSamples keep it at most max(4096, distinct elements merged so far);
  /// always 0 dense.
  size_t BufferedCount() const { return pending_.size(); }

  /// Total count falling in `interval`.
  int64_t IntervalCount(const Interval& interval) const;

  /// Per-interval totals for a whole partition.
  std::vector<int64_t> IntervalCounts(const Partition& partition) const;

  /// The empirical (plug-in) distribution. Requires total() > 0. Note: the
  /// result is a dense Distribution, so this is inherently O(n).
  Result<Distribution> ToEmpirical() const;

  /// Number of elements observed at least once.
  size_t DistinctCount() const;

  /// Number of colliding pairs: sum_i C(counts_i, 2) (the Paninski
  /// coincidence statistic's numerator).
  int64_t CollisionPairs() const;

  /// Chi-square divergence of the empirical pmf (counts / total) to the
  /// explicit pmf `q`: sum_i (p_i - q_i)^2 / q_i with the repo's
  /// zero-denominator convention (a q_i <= 0 term contributes 0 when
  /// p_i <= 0 and makes the result +infinity otherwise). Dense mode runs
  /// the fused counts kernel in one pass; sparse mode stages blocks through
  /// the same summation order, so both modes return bit-identical results.
  /// Requires total() > 0 and q.size() == size().
  double ChiSquareTo(const std::vector<double>& q) const;

  /// Visits every element with a non-zero count in ascending index order as
  /// fn(index, count). O(n) dense, O(#distinct) sparse.
  template <typename Fn>
  void ForEachNonZero(Fn&& fn) const {
    if (!sparse_) {
      for (size_t i = 0; i < dense_.size(); ++i) {
        if (dense_[i] != 0) fn(i, dense_[i]);
      }
      return;
    }
    Compact();
    for (size_t p = 0; p < idx_.size(); ++p) fn(idx_[p], cnt_[p]);
  }

  /// Amortized-O(1) reader for monotone scans (the Z-statistic walks the
  /// whole domain in index order). At(i) requires nondecreasing i across
  /// calls; dense mode tolerates any order.
  class Cursor {
   public:
    explicit Cursor(const CountVector& cv);
    int64_t At(size_t i);

   private:
    const CountVector& cv_;
    size_t pos_ = 0;
  };

 private:
  explicit CountVector(std::vector<int64_t> counts);

  /// Folds pending sparse additions into the sorted (idx_, cnt_) arrays:
  /// one radix sort of the buffer, then one merge.
  void Compact() const;
  /// Compacts once the buffer outgrows max(4096, idx_.size()).
  void CompactIfFull();
  int64_t SparseRangeSum(size_t begin, size_t end) const;

  size_t n_ = 0;
  bool sparse_ = false;
  int64_t total_ = 0;
  std::vector<int64_t> dense_;  // engaged iff !sparse_
  // Sparse storage: sorted unique indices with positive counts, plus a
  // buffer of not-yet-merged raw samples. Mutable so const queries can fold
  // the buffer in lazily; like all of CountVector, not safe for concurrent
  // use of one instance.
  mutable std::vector<size_t> idx_;
  mutable std::vector<int64_t> cnt_;
  mutable std::vector<size_t> pending_;
};

}  // namespace histest

#endif  // HISTEST_DIST_EMPIRICAL_H_
