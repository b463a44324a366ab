#include "dist/piecewise.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace histest {

Result<PiecewiseConstant> PiecewiseConstant::Create(size_t n,
                                                    std::vector<Piece> pieces) {
  if (n == 0) return Status::InvalidArgument("domain size must be positive");
  if (pieces.empty()) {
    return Status::InvalidArgument("piecewise function needs >= 1 piece");
  }
  size_t cursor = 0;
  for (const Piece& p : pieces) {
    if (p.interval.begin != cursor || p.interval.empty()) {
      return Status::InvalidArgument(
          "pieces must be contiguous and non-empty; offending piece at " +
          p.interval.ToString());
    }
    if (!std::isfinite(p.value) || p.value < 0.0) {
      return Status::InvalidArgument("piece values must be finite and >= 0");
    }
    cursor = p.interval.end;
  }
  if (cursor != n) {
    return Status::InvalidArgument("pieces must cover [0, n) exactly");
  }
  return PiecewiseConstant(n, std::move(pieces));
}

PiecewiseConstant PiecewiseConstant::FromPartitionMasses(
    const Partition& partition, const std::vector<double>& interval_masses) {
  HISTEST_CHECK_EQ(partition.NumIntervals(), interval_masses.size());
  std::vector<Piece> pieces;
  pieces.reserve(partition.NumIntervals());
  for (size_t j = 0; j < partition.NumIntervals(); ++j) {
    const Interval& iv = partition.interval(j);
    HISTEST_CHECK_GE(interval_masses[j], 0.0);
    pieces.push_back(
        Piece{iv, interval_masses[j] / static_cast<double>(iv.size())});
  }
  auto result = Create(partition.domain_size(), std::move(pieces));
  HISTEST_CHECK_OK(result);
  return std::move(result).value();
}

PiecewiseConstant PiecewiseConstant::Flat(size_t n, double value) {
  auto result = Create(n, {Piece{Interval{0, n}, value}});
  HISTEST_CHECK_OK(result);
  return std::move(result).value();
}

PiecewiseConstant PiecewiseConstant::FromDistribution(const Distribution& dist) {
  std::vector<Piece> pieces;
  size_t start = 0;
  for (size_t i = 1; i <= dist.size(); ++i) {
    if (i == dist.size() || !ExactlyEqual(dist[i], dist[start])) {
      pieces.push_back(Piece{Interval{start, i}, dist[start]});
      start = i;
    }
  }
  auto result = Create(dist.size(), std::move(pieces));
  HISTEST_CHECK_OK(result);
  return std::move(result).value();
}

double PiecewiseConstant::ValueAt(size_t i) const {
  HISTEST_CHECK_LT(i, n_);
  size_t lo = 0, hi = pieces_.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (pieces_[mid].interval.begin <= i) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  HISTEST_DCHECK(pieces_[lo].interval.Contains(i));
  return pieces_[lo].value;
}

double PiecewiseConstant::MassOf(const Interval& interval) const {
  HISTEST_CHECK_LE(interval.end, n_);
  if (interval.empty()) return 0.0;
  KahanSum acc;
  for (const Piece& p : pieces_) {
    const size_t lo = std::max(p.interval.begin, interval.begin);
    const size_t hi = std::min(p.interval.end, interval.end);
    if (lo < hi) acc.Add(p.value * static_cast<double>(hi - lo));
  }
  return acc.Total();
}

double PiecewiseConstant::TotalMass() const {
  KahanSum acc;
  for (const Piece& p : pieces_) {
    acc.Add(p.value * static_cast<double>(p.interval.size()));
  }
  return acc.Total();
}

PiecewiseConstant PiecewiseConstant::Simplified() const {
  std::vector<Piece> merged;
  for (const Piece& p : pieces_) {
    if (!merged.empty() && ExactlyEqual(merged.back().value, p.value)) {
      merged.back().interval.end = p.interval.end;
    } else {
      merged.push_back(p);
    }
  }
  return PiecewiseConstant(n_, std::move(merged));
}

Result<PiecewiseConstant> PiecewiseConstant::Normalized() const {
  const double total = TotalMass();
  if (total <= 0.0) {
    return Status::FailedPrecondition("cannot normalize zero-mass function");
  }
  std::vector<Piece> scaled = pieces_;
  for (Piece& p : scaled) p.value /= total;
  return PiecewiseConstant(n_, std::move(scaled));
}

Result<Distribution> PiecewiseConstant::ToDistribution() const {
  return Distribution::Create(ToDense());
}

std::vector<double> PiecewiseConstant::ToDense() const {
  std::vector<double> dense(n_);
  ToDenseInto(dense);
  return dense;
}

void PiecewiseConstant::ToDenseInto(std::span<double> out) const {
  HISTEST_CHECK_EQ(out.size(), n_);
  for (const Piece& p : pieces_) {
    for (size_t i = p.interval.begin; i < p.interval.end; ++i) {
      out[i] = p.value;
    }
  }
}

bool PiecewiseConstant::IsKHistogram(size_t k) const {
  return Simplified().NumPieces() <= k;
}

}  // namespace histest
