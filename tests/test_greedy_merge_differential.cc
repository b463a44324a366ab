// Differential test of GreedyMergeAtoms against the earlier implementation,
// which kept one heap-allocated sorted vector per segment and built a fresh
// merged vector for every candidate. The reference below is that code
// unchanged apart from its name and a dropped analyzer comment that applies
// to src/ only; the flat in-place merger must reproduce its atoms and
// coarsening error bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "histogram/fit_merge.h"

namespace histest {
namespace {

/// A live segment in the greedy merger: a run of original atoms kept as a
/// value-sorted (value, weight) list for weighted-median cost evaluation.
struct Segment {
  std::vector<std::pair<double, double>> sorted_vw;  // kept atoms only
  double total_length = 0.0;
  double total_weight = 0.0;
  double cost = 0.0;  // weighted-median L1 cost of this segment
  size_t prev = std::numeric_limits<size_t>::max();
  size_t next = std::numeric_limits<size_t>::max();
  size_t version = 0;
  bool alive = true;
};

/// Weighted-median L1 cost of a value-sorted (value, weight) list.
double MedianCost(const std::vector<std::pair<double, double>>& vw,
                  double total_weight, double* median_out) {
  if (vw.empty() || total_weight <= 0.0) {
    if (median_out != nullptr) *median_out = 0.0;
    return 0.0;
  }
  double acc = 0.0;
  size_t med_idx = vw.size() - 1;
  for (size_t i = 0; i < vw.size(); ++i) {
    acc += vw[i].second;
    if (acc >= 0.5 * total_weight) {
      med_idx = i;
      break;
    }
  }
  const double med = vw[med_idx].first;
  KahanSum cost;
  for (const auto& [v, w] : vw) cost.Add(w * std::fabs(v - med));
  if (median_out != nullptr) *median_out = med;
  return cost.Total();
}

std::vector<std::pair<double, double>> MergeSorted(
    const std::vector<std::pair<double, double>>& a,
    const std::vector<std::pair<double, double>>& b) {
  std::vector<std::pair<double, double>> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

struct HeapEntry {
  double cost_increase;
  size_t left;           // segment id; merge candidate is (left, left.next)
  size_t left_version;
  size_t right_version;

  bool operator>(const HeapEntry& other) const {
    return cost_increase > other.cost_increase;
  }
};

Result<CoarsenResult> ReferenceGreedyMergeAtoms(
    const std::vector<WeightedAtom>& atoms, size_t target_count) {
  if (atoms.empty()) return Status::InvalidArgument("atom sequence is empty");
  if (target_count == 0) {
    return Status::InvalidArgument("target_count must be >= 1");
  }
  const size_t m = atoms.size();
  std::vector<Segment> segments(m);
  for (size_t i = 0; i < m; ++i) {
    Segment& s = segments[i];
    if (atoms[i].cost_weight > 0.0) {
      s.sorted_vw.emplace_back(atoms[i].value, atoms[i].cost_weight);
      s.total_weight = atoms[i].cost_weight;
    }
    s.total_length = atoms[i].length;
    s.cost = 0.0;
    s.prev = (i == 0) ? std::numeric_limits<size_t>::max() : i - 1;
    s.next = (i + 1 == m) ? std::numeric_limits<size_t>::max() : i + 1;
  }

  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  auto push_candidate = [&](size_t left) {
    const size_t right = segments[left].next;
    if (right == std::numeric_limits<size_t>::max()) return;
    const auto merged = MergeSorted(segments[left].sorted_vw,
                                    segments[right].sorted_vw);
    const double merged_cost = MedianCost(
        merged, segments[left].total_weight + segments[right].total_weight,
        nullptr);
    heap.push(HeapEntry{
        merged_cost - segments[left].cost - segments[right].cost, left,
        segments[left].version, segments[right].version});
  };
  for (size_t i = 0; i + 1 < m; ++i) push_candidate(i);

  size_t live = m;
  size_t head = 0;
  while (live > target_count) {
    HISTEST_CHECK(!heap.empty());
    const HeapEntry top = heap.top();
    heap.pop();
    Segment& left = segments[top.left];
    if (!left.alive || left.version != top.left_version) continue;
    const size_t right_id = left.next;
    if (right_id == std::numeric_limits<size_t>::max()) continue;
    Segment& right = segments[right_id];
    if (!right.alive || right.version != top.right_version) continue;
    // Execute the merge into `left`.
    left.sorted_vw = MergeSorted(left.sorted_vw, right.sorted_vw);
    left.total_length += right.total_length;
    left.total_weight += right.total_weight;
    left.cost = MedianCost(left.sorted_vw, left.total_weight, nullptr);
    left.next = right.next;
    if (right.next != std::numeric_limits<size_t>::max()) {
      segments[right.next].prev = top.left;
    }
    right.alive = false;
    ++left.version;
    --live;
    if (left.prev != std::numeric_limits<size_t>::max()) {
      push_candidate(left.prev);
    }
    push_candidate(top.left);
  }

  CoarsenResult result;
  KahanSum error;
  for (size_t id = head; id != std::numeric_limits<size_t>::max();
       id = segments[id].next) {
    const Segment& s = segments[id];
    double median = 0.0;
    const double cost = MedianCost(s.sorted_vw, s.total_weight, &median);
    error.Add(cost);
    result.atoms.push_back(
        WeightedAtom{median, s.total_length, s.total_weight});
  }
  result.coarsening_error = error.Total();
  return result;
}


/// One random atom sequence. `shape` picks the value pattern: continuous
/// noise, small tied integers, a noisy staircase, or a mostly constant run
/// with spikes. Lengths reach 4 on odd shapes; `gap_rate` of the atoms are
/// cost-free gaps.
std::vector<WeightedAtom> RandomAtoms(Rng& rng, size_t m, int shape,
                                      double gap_rate) {
  std::vector<WeightedAtom> atoms(m);
  const size_t steps = 1 + rng.UniformInt(6);
  for (size_t i = 0; i < m; ++i) {
    double value = 0.0;
    switch (shape) {
      case 0:
        value = rng.UniformDouble();
        break;
      case 1:
        value = static_cast<double>(rng.UniformInt(4));
        break;
      case 2:
        value = static_cast<double>(i * steps / m) +
                0.05 * rng.UniformDouble();
        break;
      default:
        value = rng.Bernoulli(0.1) ? 1.0 + rng.UniformDouble() : 0.25;
        break;
    }
    const double length =
        (shape % 2 == 1) ? 1.0 + static_cast<double>(rng.UniformInt(4)) : 1.0;
    const bool gap = rng.Bernoulli(gap_rate);
    atoms[i] = WeightedAtom{value, length, gap ? 0.0 : length};
  }
  return atoms;
}

void ExpectBitIdentical(const CoarsenResult& got, const CoarsenResult& want) {
  ASSERT_EQ(got.atoms.size(), want.atoms.size());
  EXPECT_TRUE(ExactlyEqual(got.coarsening_error, want.coarsening_error))
      << got.coarsening_error << " vs " << want.coarsening_error;
  for (size_t i = 0; i < got.atoms.size(); ++i) {
    EXPECT_TRUE(ExactlyEqual(got.atoms[i].value, want.atoms[i].value)) << i;
    EXPECT_TRUE(ExactlyEqual(got.atoms[i].length, want.atoms[i].length)) << i;
    EXPECT_TRUE(
        ExactlyEqual(got.atoms[i].cost_weight, want.atoms[i].cost_weight))
        << i;
  }
}

TEST(GreedyMergeDifferentialTest, BitIdenticalToReferenceOnRandomSequences) {
  Rng rng(4000);
  const double gap_rates[] = {0.0, 0.0, 0.2, 0.5, 1.0};
  for (int trial = 0; trial < 4000; ++trial) {
    const size_t m = (trial % 10 == 0) ? 1 + rng.UniformInt(400)
                                       : 1 + rng.UniformInt(48);
    const int shape = trial % 4;
    const std::vector<WeightedAtom> atoms =
        RandomAtoms(rng, m, shape, gap_rates[(trial / 4) % 5]);
    const size_t target = 1 + rng.UniformInt(m);
    auto got = GreedyMergeAtoms(atoms, target);
    auto want = ReferenceGreedyMergeAtoms(atoms, target);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " m=" << m
                                      << " target=" << target);
    ExpectBitIdentical(got.value(), want.value());
    if (HasFailure()) return;
  }
}

TEST(GreedyMergeDifferentialTest, EveryTargetOnOneSequence) {
  Rng rng(77);
  const std::vector<WeightedAtom> atoms = RandomAtoms(rng, 96, 1, 0.2);
  for (size_t target = 1; target <= atoms.size() + 1; ++target) {
    SCOPED_TRACE(target);
    ExpectBitIdentical(GreedyMergeAtoms(atoms, target).value(),
                       ReferenceGreedyMergeAtoms(atoms, target).value());
  }
}

}  // namespace
}  // namespace histest
