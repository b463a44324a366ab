#include "histogram/fit_merge.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <span>

#include "common/check.h"
#include "common/math_util.h"

namespace histest {
namespace {

constexpr size_t kNone = std::numeric_limits<size_t>::max();

using ValueWeight = std::pair<double, double>;

/// A segment in the greedy merger: a run of original atoms, identified by
/// its first atom. The (value, weight) pairs of its kept atoms sit
/// value-sorted in the merger's flat array at [id, id + size); gap atoms
/// leave their slots unused. A merge absorbs the right neighbour into the
/// left one and sorts both runs back into the left's slots, as bottom-up
/// merge sort does, so a segment's run never leaves its own atom range.
struct Segment {
  size_t size = 0;
  double total_length = 0.0;
  double total_weight = 0.0;
  double cost = 0.0;  // weighted-median L1 cost of this segment
  size_t prev = kNone;
  size_t next = kNone;
  size_t version = 0;  // bumped on every merge into or out of the segment
};

/// Weighted-median L1 cost of a value-sorted (value, weight) list.
double MedianCost(std::span<const ValueWeight> vw, double total_weight,
                  double* median_out) {
  if (vw.empty() || total_weight <= 0.0) {
    if (median_out != nullptr) *median_out = 0.0;
    return 0.0;
  }
  double acc = 0.0;
  size_t med_idx = vw.size() - 1;
  for (size_t i = 0; i < vw.size(); ++i) {
    // analyzer-allow(raw-accumulate): weighted-median prefix scan with an
    // early exit at half mass; a blocked reduction has no prefix to test.
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

/// Merges the sorted runs of the adjacent segments `left_id` and `right_id`
/// into `scratch` and returns the merged run.
std::span<const ValueWeight> MergeRuns(const std::vector<ValueWeight>& vw,
                                       const std::vector<Segment>& segments,
                                       size_t left_id, size_t right_id,
                                       std::vector<ValueWeight>& scratch) {
  const ValueWeight* left = vw.data() + left_id;
  const ValueWeight* right = vw.data() + right_id;
  const size_t left_size = segments[left_id].size;
  const size_t right_size = segments[right_id].size;
  std::merge(left, left + left_size, right, right + right_size,
             scratch.begin());
  return {scratch.data(), left_size + right_size};
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

}  // namespace

Result<CoarsenResult> GreedyMergeAtoms(const std::vector<WeightedAtom>& atoms,
                                       size_t target_count) {
  if (atoms.empty()) return Status::InvalidArgument("atom sequence is empty");
  if (target_count == 0) {
    return Status::InvalidArgument("target_count must be >= 1");
  }
  const size_t m = atoms.size();
  std::vector<Segment> segments(m);
  std::vector<ValueWeight> vw(m);
  std::vector<ValueWeight> scratch(m);
  for (size_t i = 0; i < m; ++i) {
    Segment& s = segments[i];
    if (atoms[i].cost_weight > 0.0) {
      vw[i] = {atoms[i].value, atoms[i].cost_weight};
      s.size = 1;
      s.total_weight = atoms[i].cost_weight;
    }
    s.total_length = atoms[i].length;
    s.prev = (i == 0) ? kNone : i - 1;
    s.next = (i + 1 == m) ? kNone : i + 1;
  }

  // The m - 1 initial candidates, then at most one net push per merge (a
  // merge pops one entry and pushes two), so the heap never reallocates.
  std::vector<HeapEntry> heap_storage;
  heap_storage.reserve(2 * m);
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap(std::greater<HeapEntry>(), std::move(heap_storage));
  auto push_candidate = [&](size_t left) {
    const size_t right = segments[left].next;
    if (right == kNone) return;
    const double merged_cost = MedianCost(
        MergeRuns(vw, segments, left, right, scratch),
        segments[left].total_weight + segments[right].total_weight, nullptr);
    heap.push(HeapEntry{
        merged_cost - segments[left].cost - segments[right].cost, left,
        segments[left].version, segments[right].version});
  };
  for (size_t i = 0; i + 1 < m; ++i) push_candidate(i);

  size_t live = m;
  while (live > target_count) {
    HISTEST_CHECK(!heap.empty());
    const HeapEntry top = heap.top();
    heap.pop();
    // A dead segment's version was bumped when it was absorbed, so stale
    // entries fail the version checks; `next` only links live segments.
    Segment& left = segments[top.left];
    if (left.version != top.left_version) continue;
    const size_t right_id = left.next;
    if (right_id == kNone) continue;
    Segment& right = segments[right_id];
    if (right.version != top.right_version) continue;
    // Execute the merge into `left`, writing the merged run back in place.
    const std::span<const ValueWeight> merged =
        MergeRuns(vw, segments, top.left, right_id, scratch);
    std::copy(merged.begin(), merged.end(), vw.begin() + top.left);
    left.size = merged.size();
    left.total_length += right.total_length;
    left.total_weight += right.total_weight;
    left.cost = MedianCost(merged, left.total_weight, nullptr);
    left.next = right.next;
    if (right.next != kNone) segments[right.next].prev = top.left;
    ++right.version;
    ++left.version;
    --live;
    if (left.prev != kNone) push_candidate(left.prev);
    push_candidate(top.left);
  }

  CoarsenResult result;
  result.atoms.reserve(live);
  KahanSum error;
  for (size_t id = 0; id != kNone; id = segments[id].next) {
    const Segment& s = segments[id];
    double median = 0.0;
    const double cost = MedianCost(
        std::span<const ValueWeight>(vw.data() + id, s.size),
        s.total_weight, &median);
    error.Add(cost);
    result.atoms.push_back(
        WeightedAtom{median, s.total_length, s.total_weight});
  }
  result.coarsening_error = error.Total();
  return result;
}

Result<PiecewiseConstant> LearnMergedHistogram(const CountVector& counts,
                                               size_t t) {
  if (counts.total() == 0) {
    return Status::FailedPrecondition("cannot learn from zero samples");
  }
  if (t == 0) return Status::InvalidArgument("t must be >= 1");
  auto empirical = counts.ToEmpirical();
  HISTEST_RETURN_IF_ERROR(empirical.status());
  const std::vector<double>& pmf = empirical.value().pmf();
  const PrefixMassIndex& index = empirical.value().PrefixIndex();
  std::vector<WeightedAtom> atoms = AtomsFromDense(pmf);
  auto coarse = GreedyMergeAtoms(atoms, t);
  HISTEST_RETURN_IF_ERROR(coarse.status());

  // Each coarsened atom becomes a piece valued at the empirical
  // distribution's average over it, O(1) from the prefix index.
  const std::vector<size_t> offsets = AtomOffsets(coarse.value().atoms);
  std::vector<PiecewiseConstant::Piece> pieces;
  for (size_t p = 0; p + 1 < offsets.size(); ++p) {
    const Interval iv{offsets[p], offsets[p + 1]};
    pieces.push_back(PiecewiseConstant::Piece{
        iv, index.MassOf(iv) / static_cast<double>(iv.size())});
  }
  return PiecewiseConstant::Create(counts.size(), std::move(pieces));
}

}  // namespace histest
