#include "dist/sampler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/math_util.h"
#include "common/thread_pool.h"

namespace histest {
namespace {

/// Level of an element of mass 0: it takes no draws.
constexpr uint8_t kNoLevel = AliasSampler::kMaxLevels;

/// Runs call(copy) on a copy of `rng` and writes the copy back. The passes
/// below keep their Rng in registers only if its address never reaches an
/// out-of-line call, such as Rng::Poisson or Rng::Binomial.
template <typename Call>
int64_t OnCopy(Rng& rng, const Call& call) {
  Rng copy = rng;
  const int64_t x = call(copy);
  rng = copy;
  return x;
}

/// Poisson(mean) draws for one of AddCounts' samplers, which serves
/// `elements` draws per pass. With a table of at most `elements` entries it
/// is inversion through a cumulative table with a guide table, one uniform
/// per draw; the guide has a power-of-two size, so u * size and cdf * size
/// are exact and a lookup never lands past its answer. A larger table would
/// cost more to build than the draws it serves save, so Rng::Poisson takes
/// over, as it does from kTableLimit on, where exp(-mean) would near
/// underflow (past ~745).
class ColumnPoisson {
 public:
  static constexpr double kTableLimit = 500.0;

  ColumnPoisson(double mean, size_t elements) : mean_(mean) {
    if (mean >= kTableLimit) return;
    KahanSum cdf;
    double pmf = std::exp(-mean);
    for (int64_t k = 0;; ++k) {
      if (cdf_.size() == elements) {
        cdf_.clear();
        return;
      }
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

  /// Never negative, which is what lets DrawCounts adopt a drawn vector
  /// without re-reading it: a table draw is an unsigned index, and
  /// Rng::Poisson checks its own draws.
  int64_t Draw(Rng& rng) const {
    if (guide_.empty()) {
      return OnCopy(rng, [&](Rng& r) { return r.Poisson(mean_); });
    }
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
  if (c > 32) return OnCopy(rng, [&](Rng& r) { return r.Binomial(c, prob); });
  // UniformDouble() < prob, as an integer test: the uniform is k * 2^-53
  // for the top 53 bits k of Next(), and prob * 2^53 is exact.
  const uint64_t below = static_cast<uint64_t>(std::ceil(prob * 0x1.0p53));
  int64_t stay = 0;
  for (int64_t i = 0; i < c; ++i) stay += (rng.Next() >> 11) < below ? 1 : 0;
  return stay;
}

/// One pass over columns [begin, end): each column takes a Poisson number
/// of draws and keeps its stay count in counts[j]. The leave count goes to
/// counts[alias[j]], or, with `parked`, into parked[j] for a later serial
/// scatter (a block's alias targets may lie in other blocks). Returns the
/// pass's draw total. The pass draws on a local copy of `rng` that stays in
/// registers (OnCopy) and is written back once at the end: `counts` may
/// alias the generator's uint64_t state, so drawing through the reference
/// would store the state back after every count write, and a block's Rng
/// shares a cache line with its neighbours' (RunBlocks).
int64_t DrawColumns(Rng& rng, const ColumnPoisson& column, const double* prob,
                    const size_t* alias, size_t begin, size_t end,
                    int64_t* counts, uint32_t* parked) {
  if (parked != nullptr) std::fill(parked + begin, parked + end, 0u);
  Rng local = rng;
  int64_t drawn = 0;
  for (size_t j = begin; j < end; ++j) {
    const int64_t draws = column.Draw(local);
    if (draws == 0) continue;
    drawn += draws;
    const int64_t stay = SplitColumn(local, draws, prob[j]);
    counts[j] += stay;
    if (parked == nullptr) {
      counts[alias[j]] += draws - stay;
    } else {
      HISTEST_CHECK_LE(draws, int64_t{UINT32_MAX});
      parked[j] = static_cast<uint32_t>(draws - stay);
    }
  }
  rng = local;
  return drawn;
}

/// One level pass over elements [begin, end): element j takes a draw from
/// its level's sampler. Returns the pass's draw total. Runs on a local copy
/// of `rng`, as DrawColumns does.
int64_t DrawLevels(Rng& rng, const ColumnPoisson* poisson,
                   const uint8_t* level, size_t begin, size_t end,
                   int64_t* counts) {
  Rng local = rng;
  int64_t drawn = 0;
  for (size_t j = begin; j < end; ++j) {
    if (level[j] == kNoLevel) continue;
    const int64_t draws = poisson[level[j]].Draw(local);
    counts[j] += draws;
    drawn += draws;
  }
  rng = local;
  return drawn;
}

/// Runs pass(rng, begin, end) over [0, n) and returns the sum of its draw
/// totals. A domain of one block runs on `rng`. Wider ones run blocks of
/// kColumnBlock elements with ParallelFor on the shared pool, each on an
/// Rng forked from `rng` in block order before the region: the result
/// depends on the seed only, never on which executor runs which block.
template <typename Pass>
int64_t RunBlocks(Rng& rng, size_t n, const Pass& pass) {
  constexpr size_t kBlock = AliasSampler::kColumnBlock;
  const size_t blocks = (n + kBlock - 1) / kBlock;
  if (blocks == 1) return pass(rng, 0, n);
  std::vector<Rng> block_rngs;
  block_rngs.reserve(blocks);
  for (size_t b = 0; b < blocks; ++b) block_rngs.push_back(rng.Fork());
  std::vector<int64_t> block_drawn(blocks);
  const int executors = ThreadPool::Shared().size() + 1;
  ParallelFor(static_cast<int64_t>(blocks), executors, [&](int64_t b) {
    const size_t begin = static_cast<size_t>(b) * kBlock;
    block_drawn[b] = pass(block_rngs[b], begin, std::min(n, begin + kBlock));
  });
  int64_t drawn = 0;
  for (const int64_t d : block_drawn) drawn += d;
  return drawn;
}

/// SampleBatch's table pass: out[i] = us[i] < prob[cols[i]] ? cols[i] :
/// alias[cols[i]], the comparison Sample() makes. The (column, alias) cache
/// lines are prefetched a few iterations ahead: for tables beyond the L2
/// cache this pass is latency-bound. The select is a mask, not a branch:
/// where prob[column] sits mid-range, a branch on the comparison
/// mispredicts about every other sample.
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

/// Vose's stable alias construction over `weights`, which sum to 1.
void BuildAliasTable(const std::vector<double>& weights,
                     std::vector<double>& prob, std::vector<size_t>& alias) {
  const size_t n = weights.size();
  prob.assign(n, 0.0);
  alias.assign(n, 0);
  // Scale to mean 1, split into small/large.
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
    prob[s] = scaled[s];
    alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are 1 up to rounding.
  for (size_t i : large) {
    prob[i] = 1.0;
    alias[i] = i;
  }
  for (size_t i : small) {
    prob[i] = 1.0;
    alias[i] = i;
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
  Build(normalized);
}

void AliasSampler::Build(const std::vector<double>& weights) {
  size_ = weights.size();
  if (!BuildLevels(weights)) BuildAliasTable(weights, prob_, alias_);
}

bool AliasSampler::BuildLevels(const std::vector<double>& weights) {
  const size_t n = weights.size();
  if (n > (size_t{1} << 32)) return false;
  // The distinct positive values, ascending. A run of equal values (a
  // k-histogram's piece) costs one comparison per element.
  std::vector<double> values;
  double last = 0.0;
  for (const double w : weights) {
    if (ExactlyEqual(w, last) || ExactlyEqual(w, 0.0)) continue;
    last = w;
    const auto it = std::lower_bound(values.begin(), values.end(), w);
    if (it != values.end() && ExactlyEqual(*it, w)) continue;
    if (values.size() == kMaxLevels) return false;
    values.insert(it, w);
  }
  const size_t num_levels = values.size();
  level_.resize(n);
  last = 0.0;
  uint8_t last_level = kNoLevel;
  for (size_t i = 0; i < n; ++i) {
    if (!ExactlyEqual(weights[i], last)) {
      last = weights[i];
      last_level = ExactlyEqual(last, 0.0)
                       ? kNoLevel
                       : static_cast<uint8_t>(
                             std::lower_bound(values.begin(), values.end(),
                                              last) -
                             values.begin());
    }
    level_[i] = last_level;
  }
  // Group the element ids by level (a counting sort, ids ascending).
  level_begin_.assign(num_levels + 1, 0);
  for (const uint8_t l : level_) {
    if (l != kNoLevel) ++level_begin_[l + 1];
  }
  for (size_t l = 0; l < num_levels; ++l) {
    level_begin_[l + 1] += level_begin_[l];
  }
  members_.resize(level_begin_[num_levels]);
  std::vector<size_t> next(level_begin_.begin(), level_begin_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    if (level_[i] != kNoLevel) {
      members_[next[level_[i]]++] = static_cast<uint32_t>(i);
    }
  }
  // Normalize by the levels' total mass, so that the level pass and the
  // level alias table sample one law.
  KahanSum total;
  for (size_t l = 0; l < num_levels; ++l) {
    total.Add(values[l] *
              static_cast<double>(level_begin_[l + 1] - level_begin_[l]));
  }
  level_value_.resize(num_levels);
  std::vector<double> masses(num_levels);
  for (size_t l = 0; l < num_levels; ++l) {
    level_value_[l] = values[l] / total.Total();
    masses[l] = level_value_[l] *
                static_cast<double>(level_begin_[l + 1] - level_begin_[l]);
  }
  BuildAliasTable(masses, prob_, alias_);
  // Level l's share of the mass of levels l and up, for AddLevelDraws; the
  // last level's is 1.
  level_split_.resize(num_levels);
  KahanSum suffix;
  for (size_t l = num_levels; l-- > 0;) {
    suffix.Add(masses[l]);
    level_split_[l] = std::min(1.0, masses[l] / suffix.Total());
  }
  return true;
}

size_t AliasSampler::Sample(Rng& rng) const {
  const size_t column = static_cast<size_t>(rng.UniformInt(prob_.size()));
  const size_t pick =
      rng.UniformDouble() < prob_[column] ? column : alias_[column];
  if (members_.empty()) return pick;
  const size_t begin = level_begin_[pick];
  return members_[begin + static_cast<size_t>(rng.UniformInt(
                              level_begin_[pick + 1] - begin))];
}

void AliasSampler::SampleBatch(Rng& rng, size_t* out, int64_t count) const {
  if (!members_.empty()) {
    for (int64_t i = 0; i < count; ++i) out[i] = Sample(rng);
    return;
  }
  // Identical arithmetic to Sample(), restructured into two passes per
  // chunk: first the pure-RNG pass (inline xoshiro, no memory traffic),
  // then the table-resolution pass, which makes the same `u < prob[col]`
  // comparison, so the output stream is bit-identical to repeated Sample()
  // calls.
  const uint64_t columns = prob_.size();
  constexpr int64_t kChunk = 1024;
  uint64_t cols[kChunk];
  double us[kChunk];
  int64_t done = 0;
  while (done < count) {
    const int64_t c = std::min(count - done, kChunk);
    rng.FillPairs(columns, cols, us, c);
    ResolveAlias(prob_.data(), alias_.data(), cols, us, out + done, c);
    done += c;
  }
}

void AliasSampler::AddCounts(Rng& rng, int64_t count,
                             int64_t* counts) const {
  HISTEST_CHECK_GE(count, 0);
  const size_t n = size_;
  const double m = static_cast<double>(count);
  const double mu = m - 3.0 * std::sqrt(m);
  int64_t drawn = 0;
  // The pass total is Poisson(mu), so it exceeds count with probability
  // ~0.13%; such a pass is cleared and drawn again.
  const auto draw_pass = [&](const auto& pass) {
    while ((drawn = RunBlocks(rng, n, pass)) > count) {
      std::fill(counts, counts + n, int64_t{0});
    }
  };
  if (mu > 0.0 && !members_.empty()) {
    std::vector<ColumnPoisson> poisson;
    poisson.reserve(level_value_.size());
    for (size_t l = 0; l < level_value_.size(); ++l) {
      poisson.emplace_back(mu * level_value_[l],
                           level_begin_[l + 1] - level_begin_[l]);
    }
    draw_pass([&](Rng& block_rng, size_t begin, size_t end) {
      return DrawLevels(block_rng, poisson.data(), level_.data(), begin, end,
                        counts);
    });
  } else if (mu > 0.0) {
    const ColumnPoisson column(mu / static_cast<double>(n), n);
    // A multi-block pass parks its leave counts until every block is done.
    std::vector<uint32_t> parked(n > kColumnBlock ? n : 0);
    uint32_t* const parked_or_null = parked.empty() ? nullptr : parked.data();
    draw_pass([&](Rng& block_rng, size_t begin, size_t end) {
      return DrawColumns(block_rng, column, prob_.data(), alias_.data(),
                         begin, end, counts, parked_or_null);
    });
    for (size_t j = 0; j < parked.size(); ++j) counts[alias_[j]] += parked[j];
  }
  if (!members_.empty()) {
    AddLevelDraws(rng, count - drawn, counts);
    return;
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

void AliasSampler::AddLevelDraws(Rng& rng, int64_t count,
                                 int64_t* counts) const {
  // Multinomial(count, level masses) as a chain of binomials, each level
  // taking its share of what the levels before it left; then one uniform
  // member per draw.
  for (size_t l = 0; l < level_split_.size() && count > 0; ++l) {
    const int64_t take = rng.Binomial(count, level_split_[l]);
    count -= take;
    const size_t begin = level_begin_[l];
    const uint64_t size = level_begin_[l + 1] - begin;
    for (int64_t i = 0; i < take; ++i) {
      ++counts[members_[begin + static_cast<size_t>(rng.UniformInt(size))]];
    }
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
