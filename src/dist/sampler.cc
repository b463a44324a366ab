#include "dist/sampler.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace histest {
namespace {

/// Poisson(mean) draws for AddCounts' columns. Below kTableLimit it is
/// inversion through a cumulative table with a guide table, one uniform
/// per draw; the guide has a power-of-two size, so u * size and cdf * size
/// are exact and a lookup never lands past its answer. Above the limit
/// the table would outgrow its use, and exp(-mean) would near underflow
/// past ~745, so Rng::Poisson takes over.
class ColumnPoisson {
 public:
  static constexpr double kTableLimit = 500.0;

  explicit ColumnPoisson(double mean) : mean_(mean) {
    if (mean >= kTableLimit) return;
    KahanSum cdf;
    double pmf = std::exp(-mean);
    for (int64_t k = 0;; ++k) {
      if (k > 0) pmf *= mean / static_cast<double>(k);
      cdf.Add(pmf);
      cdf_.push_back(cdf.Total());
      // Past the mean the tail beyond a 1e-18 term is far below 2^-53.
      if (static_cast<double>(k) > mean && pmf < 1e-18) break;
    }
    cdf_.back() = 1.0;  // u < 1, so every walk stops by the last entry
    guide_.resize(std::bit_ceil(cdf_.size()));
    const double scale = static_cast<double>(guide_.size());
    uint32_t k = 0;
    for (size_t g = 0; g < guide_.size(); ++g) {
      while (cdf_[k] * scale <= static_cast<double>(g)) ++k;
      guide_[g] = k;
    }
  }

  int64_t Draw(Rng& rng) const {
    if (guide_.empty()) return rng.Poisson(mean_);
    const double u = rng.UniformDouble();
    uint32_t k =
        guide_[static_cast<size_t>(u * static_cast<double>(guide_.size()))];
    while (cdf_[k] <= u) ++k;
    return k;
  }

 private:
  double mean_;
  std::vector<double> cdf_;     // cdf_[k] = P(X <= k); last entry 1
  std::vector<uint32_t> guide_;  // guide_[g] = min{k : cdf_[k] > g / size}
};

/// How many of a column's c draws keep the column (alias coin u < prob).
int64_t SplitColumn(Rng& rng, int64_t c, double prob) {
  if (prob >= 1.0) return c;
  if (c > 32) return rng.Binomial(c, prob);
  // UniformDouble() < prob, as an integer test: the uniform is k * 2^-53
  // for the top 53 bits k of Next(), and prob * 2^53 is exact.
  const uint64_t below = static_cast<uint64_t>(std::ceil(prob * 0x1.0p53));
  int64_t stay = 0;
  for (int64_t i = 0; i < c; ++i) stay += (rng.Next() >> 11) < below ? 1 : 0;
  return stay;
}

/// SampleBatch's table pass: out[i] = us[i] < prob[cols[i]] ? cols[i] :
/// alias[cols[i]], the comparison Sample() makes. The (column, alias) cache
/// lines are prefetched a few iterations ahead: for tables beyond the L2
/// cache this pass is latency-bound. The select is a mask, not a branch:
/// on k-histogram tables prob[column] sits mid-range, so a branch on the
/// comparison mispredicts about every other sample.
void ResolveAlias(const double* prob, const size_t* alias,
                  const uint64_t* cols, const double* us, size_t* out,
                  int64_t count) {
  constexpr int64_t kAhead = 16;
  for (int64_t i = 0; i < count; ++i) {
    if (i + kAhead < count) {
      const uint64_t ahead = cols[i + kAhead];
      __builtin_prefetch(prob + ahead, 0, 1);
      __builtin_prefetch(alias + ahead, 0, 1);
    }
    const size_t column = static_cast<size_t>(cols[i]);
    const size_t keep = size_t{0} - static_cast<size_t>(us[i] < prob[column]);
    out[i] = (column & keep) | (alias[column] & ~keep);
  }
}

}  // namespace

AliasSampler::AliasSampler(const Distribution& dist) { Build(dist.pmf()); }

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  HISTEST_CHECK(!weights.empty());
  const double total = SumOf(weights);
  HISTEST_CHECK_GT(total, 0.0);
  std::vector<double> normalized = weights;
  for (double& w : normalized) {
    HISTEST_CHECK_GE(w, 0.0);
    w /= total;
  }
  Build(std::move(normalized));
}

void AliasSampler::Build(std::vector<double> weights) {
  const size_t n = weights.size();
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  // Vose's stable construction: scale to mean 1, split into small/large.
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n);
  }
  std::vector<size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const size_t s = small.back();
    small.pop_back();
    const size_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are 1 up to rounding.
  for (size_t i : large) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
  for (size_t i : small) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
}

size_t AliasSampler::Sample(Rng& rng) const {
  const size_t column = static_cast<size_t>(rng.UniformInt(prob_.size()));
  return rng.UniformDouble() < prob_[column] ? column : alias_[column];
}

void AliasSampler::SampleBatch(Rng& rng, size_t* out, int64_t count) const {
  // Identical arithmetic to Sample(), restructured into two passes per
  // chunk: first the pure-RNG pass (inline xoshiro, no memory traffic),
  // then the table-resolution pass, which makes the same `u < prob[col]`
  // comparison, so the output stream is bit-identical to repeated Sample()
  // calls.
  const uint64_t n = prob_.size();
  constexpr int64_t kChunk = 1024;
  uint64_t cols[kChunk];
  double us[kChunk];
  int64_t done = 0;
  while (done < count) {
    const int64_t c = std::min(count - done, kChunk);
    rng.FillPairs(n, cols, us, c);
    ResolveAlias(prob_.data(), alias_.data(), cols, us, out + done, c);
    done += c;
  }
}

void AliasSampler::AddCounts(Rng& rng, int64_t count,
                             int64_t* counts) const {
  HISTEST_CHECK_GE(count, 0);
  const size_t n = prob_.size();
  const double m = static_cast<double>(count);
  const double mean = (m - 3.0 * std::sqrt(m)) / static_cast<double>(n);
  int64_t drawn = 0;
  if (mean > 0.0) {
    const ColumnPoisson column(mean);
    // The pass total is Poisson(count - 3 sqrt(count)), so it exceeds
    // count with probability ~0.13%; such a pass is cleared and drawn
    // again.
    while (true) {
      drawn = 0;
      for (size_t j = 0; j < n; ++j) {
        const int64_t draws = column.Draw(rng);
        if (draws == 0) continue;
        drawn += draws;
        const int64_t stay = SplitColumn(rng, draws, prob_[j]);
        counts[j] += stay;
        counts[alias_[j]] += draws - stay;
      }
      if (drawn <= count) break;
      std::fill(counts, counts + n, int64_t{0});
    }
  }
  constexpr int64_t kChunk = 1024;
  size_t buffer[kChunk];
  while (drawn < count) {
    const int64_t c = std::min(count - drawn, kChunk);
    SampleBatch(rng, buffer, c);
    for (int64_t i = 0; i < c; ++i) ++counts[buffer[i]];
    drawn += c;
  }
}

std::vector<size_t> AliasSampler::SampleMany(Rng& rng, size_t count) const {
  std::vector<size_t> out(count);
  SampleBatch(rng, out.data(), static_cast<int64_t>(count));
  return out;
}

namespace {

std::vector<double> PieceMasses(const PiecewiseConstant& pwc) {
  std::vector<double> masses;
  masses.reserve(pwc.NumPieces());
  for (const auto& p : pwc.pieces()) {
    masses.push_back(p.value * static_cast<double>(p.interval.size()));
  }
  return masses;
}

}  // namespace

PiecewiseSampler::PiecewiseSampler(const PiecewiseConstant& pwc)
    : domain_size_(pwc.domain_size()),
      piece_sampler_(PieceMasses(pwc)) {
  piece_intervals_.reserve(pwc.NumPieces());
  for (const auto& p : pwc.pieces()) piece_intervals_.push_back(p.interval);
}

size_t PiecewiseSampler::Sample(Rng& rng) const {
  const Interval& iv = piece_intervals_[piece_sampler_.Sample(rng)];
  return iv.begin + static_cast<size_t>(rng.UniformInt(iv.size()));
}

void PiecewiseSampler::SampleBatch(Rng& rng, size_t* out,
                                   int64_t count) const {
  for (int64_t i = 0; i < count; ++i) out[i] = Sample(rng);
}

std::vector<int64_t> PoissonizedCounts(const Distribution& dist, double m,
                                       Rng& rng) {
  HISTEST_CHECK_GE(m, 0.0);
  std::vector<int64_t> counts(dist.size());
  for (size_t i = 0; i < dist.size(); ++i) {
    counts[i] = rng.Poisson(m * dist[i]);
  }
  return counts;
}

}  // namespace histest
