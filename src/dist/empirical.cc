#include "dist/empirical.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/kernels.h"
#include "common/math_util.h"

namespace histest {

namespace {

/// Pending sparse observations a CountVector keeps before it compacts,
/// unless it already holds more distinct elements than this.
constexpr size_t kMinPending = 4096;

/// Sorts `keys`, each below n, by an LSD radix sort on 11-bit digits: one
/// counting pass per digit of n - 1 (two at n = 2^18, four at 2^40).
void RadixSort(std::vector<size_t>& keys, size_t n) {
  constexpr int kDigitBits = 11;
  constexpr size_t kRadix = size_t{1} << kDigitBits;
  const int passes =
      (static_cast<int>(std::bit_width(n - 1)) + kDigitBits - 1) / kDigitBits;
  std::vector<size_t> sorted(keys.size());
  std::vector<size_t> offset(kRadix);
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * kDigitBits;
    const auto digit = [&](size_t k) { return (k >> shift) & (kRadix - 1); };
    std::fill(offset.begin(), offset.end(), size_t{0});
    for (const size_t k : keys) ++offset[digit(k)];
    size_t next = 0;
    for (size_t& o : offset) next += std::exchange(o, next);
    for (const size_t k : keys) sorted[offset[digit(k)]++] = k;
    keys.swap(sorted);
  }
}

}  // namespace

CountVector::CountVector(std::vector<int64_t> counts)
    : n_(counts.size()), total_(0), dense_(std::move(counts)) {
  for (int64_t c : dense_) {
    HISTEST_CHECK_GE(c, 0);
    total_ += c;
  }
}

CountVector CountVector::Sparse(size_t n) {
  CountVector cv(size_t{0});
  cv.n_ = n;
  cv.sparse_ = true;
  return cv;
}

CountVector CountVector::ShapedFor(size_t n, int64_t expected_samples) {
  return PrefersSparse(n, expected_samples) ? Sparse(n) : CountVector(n);
}

bool CountVector::PrefersSparse(size_t n, int64_t expected_samples) {
  HISTEST_CHECK_GE(expected_samples, 0);
  return expected_samples <
         static_cast<int64_t>(n / static_cast<size_t>(kSparseDomainFraction));
}

CountVector CountVector::FromSamples(size_t n,
                                     const std::vector<size_t>& samples) {
  CountVector cv(n);
  for (size_t s : samples) cv.Add(s);
  return cv;
}

CountVector CountVector::FromCounts(std::vector<int64_t> counts) {
  return CountVector(std::move(counts));
}

CountVector CountVector::FromDrawnCounts(std::vector<int64_t> counts,
                                         int64_t total) {
  HISTEST_CHECK_GE(total, 0);
  CountVector cv(size_t{0});
  cv.n_ = counts.size();
  cv.total_ = total;
  cv.dense_ = std::move(counts);
  return cv;
}

int64_t CountVector::operator[](size_t i) const {
  HISTEST_CHECK_LT(i, n_);
  if (!sparse_) return dense_[i];
  Compact();
  const auto it = std::lower_bound(idx_.begin(), idx_.end(), i);
  if (it == idx_.end() || *it != i) return 0;
  return cnt_[static_cast<size_t>(it - idx_.begin())];
}

const std::vector<int64_t>& CountVector::counts() const {
  HISTEST_CHECK(!sparse_);
  return dense_;
}

void CountVector::Add(size_t i) {
  HISTEST_CHECK_LT(i, n_);
  ++total_;
  if (!sparse_) {
    ++dense_[i];
    return;
  }
  pending_.push_back(i);
  CompactIfFull();
}

void CountVector::CompactIfFull() {
  // The buffer may grow as large as the compacted arrays, so each
  // compaction sorts at least as many new indices as it merges old ones:
  // linear amortized, and O(distinct + kMinPending) memory.
  if (pending_.size() > std::max(kMinPending, idx_.size())) Compact();
}

void CountVector::AddSamples(const size_t* samples, int64_t count) {
  HISTEST_CHECK_GE(count, 0);
  if (!sparse_) {
    // The increments hit random cache lines across an O(n) array, so
    // prefetch a few iterations ahead to keep several misses in flight.
    constexpr int64_t kAhead = 16;
    int64_t* counts = dense_.data();
    for (int64_t i = 0; i < count; ++i) {
      if (i + kAhead < count) {
        __builtin_prefetch(counts + samples[i + kAhead], 1, 1);
      }
      HISTEST_CHECK_LT(samples[i], n_);
      ++counts[samples[i]];
    }
    total_ += count;
    return;
  }
  for (int64_t i = 0; i < count; ++i) {
    HISTEST_CHECK_LT(samples[i], n_);
  }
  pending_.insert(pending_.end(), samples, samples + count);
  total_ += count;
  CompactIfFull();
}

void CountVector::Compact() const {
  if (pending_.empty()) return;
  RadixSort(pending_, n_);
  // Aggregate the sorted buffer into (index, count) runs, then merge with
  // the existing sorted arrays.
  std::vector<size_t> new_idx;
  std::vector<int64_t> new_cnt;
  new_idx.reserve(idx_.size() + pending_.size());
  new_cnt.reserve(idx_.size() + pending_.size());
  size_t p = 0;  // cursor into pending_
  size_t e = 0;  // cursor into idx_/cnt_
  while (p < pending_.size() || e < idx_.size()) {
    size_t next;
    if (p >= pending_.size()) {
      next = idx_[e];
    } else if (e >= idx_.size()) {
      next = pending_[p];
    } else {
      next = std::min(pending_[p], idx_[e]);
    }
    int64_t c = 0;
    if (e < idx_.size() && idx_[e] == next) {
      c += cnt_[e];
      ++e;
    }
    while (p < pending_.size() && pending_[p] == next) {
      ++c;
      ++p;
    }
    new_idx.push_back(next);
    new_cnt.push_back(c);
  }
  idx_ = std::move(new_idx);
  cnt_ = std::move(new_cnt);
  pending_.clear();
}

int64_t CountVector::SparseRangeSum(size_t begin, size_t end) const {
  Compact();
  int64_t total = 0;
  for (auto it = std::lower_bound(idx_.begin(), idx_.end(), begin);
       it != idx_.end() && *it < end; ++it) {
    total += cnt_[static_cast<size_t>(it - idx_.begin())];
  }
  return total;
}

int64_t CountVector::IntervalCount(const Interval& interval) const {
  HISTEST_CHECK_LE(interval.end, n_);
  if (sparse_) return SparseRangeSum(interval.begin, interval.end);
  int64_t total = 0;
  for (size_t i = interval.begin; i < interval.end; ++i) total += dense_[i];
  return total;
}

std::vector<int64_t> CountVector::IntervalCounts(
    const Partition& partition) const {
  HISTEST_CHECK_EQ(partition.domain_size(), n_);
  std::vector<int64_t> out;
  out.reserve(partition.NumIntervals());
  if (sparse_) {
    // One forward sweep over the sorted entries: partition intervals are
    // disjoint and ascending, so a single cursor suffices.
    Compact();
    size_t p = 0;
    for (const Interval& iv : partition.intervals()) {
      while (p < idx_.size() && idx_[p] < iv.begin) ++p;
      int64_t total = 0;
      while (p < idx_.size() && idx_[p] < iv.end) total += cnt_[p++];
      out.push_back(total);
    }
    return out;
  }
  for (const Interval& iv : partition.intervals()) {
    out.push_back(IntervalCount(iv));
  }
  return out;
}

Result<Distribution> CountVector::ToEmpirical() const {
  if (total_ == 0) {
    return Status::FailedPrecondition("no samples: empirical distribution "
                                      "undefined");
  }
  std::vector<double> weights(n_, 0.0);
  ForEachNonZero([&](size_t i, int64_t c) {
    weights[i] = static_cast<double>(c);
  });
  return Distribution::FromWeights(std::move(weights));
}

size_t CountVector::DistinctCount() const {
  size_t distinct = 0;
  ForEachNonZero([&](size_t, int64_t) { ++distinct; });
  return distinct;
}

int64_t CountVector::CollisionPairs() const {
  int64_t pairs = 0;
  ForEachNonZero([&](size_t, int64_t c) { pairs += c * (c - 1) / 2; });
  return pairs;
}

double CountVector::ChiSquareTo(const std::vector<double>& q) const {
  HISTEST_CHECK_EQ(q.size(), n_);
  HISTEST_CHECK_GT(total_, 0);
  const double inv_total = 1.0 / static_cast<double>(total_);
  if (!sparse_) {
    return FusedCountsChiSquareKernel(dense_.data(), inv_total, q.data(), n_);
  }
  // Sparse: stage integer counts through a fixed-size block and run the
  // same fused kernel per block. Each kernel call returns the block partial
  // exactly (one compensated add on a zero accumulator), so the outer
  // KahanSum reproduces the dense path's across-block order bit-for-bit.
  // The infinity sentinel stays out-of-band: feeding +inf through the
  // compensated accumulator would produce inf - inf = NaN.
  Cursor reader(*this);
  std::array<int64_t, kKernelBlock> block;
  KahanSum acc;
  bool infinite = false;
  for (size_t base = 0; base < n_; base += kKernelBlock) {
    const size_t len = std::min(kKernelBlock, n_ - base);
    for (size_t i = 0; i < len; ++i) block[i] = reader.At(base + i);
    const double partial =
        FusedCountsChiSquareKernel(block.data(), inv_total, q.data() + base,
                                   len);
    if (std::isinf(partial)) {
      infinite = true;
    } else {
      acc.Add(partial);
    }
  }
  return infinite ? std::numeric_limits<double>::infinity() : acc.Total();
}

CountVector::Cursor::Cursor(const CountVector& cv) : cv_(cv) {
  if (cv_.sparse_) cv_.Compact();
}

int64_t CountVector::Cursor::At(size_t i) {
  if (!cv_.sparse_) return cv_.dense_[i];
  while (pos_ < cv_.idx_.size() && cv_.idx_[pos_] < i) ++pos_;
  if (pos_ < cv_.idx_.size() && cv_.idx_[pos_] == i) return cv_.cnt_[pos_];
  return 0;
}

}  // namespace histest
