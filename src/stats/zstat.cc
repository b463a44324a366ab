#include "stats/zstat.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "common/kernels.h"
#include "common/math_util.h"
#include "common/thread_pool.h"

namespace histest {
namespace {

/// Domains of at least this many elements (16 count-draw blocks) run the
/// dense sweep in jobs on the shared pool; narrower ones run it as one
/// inline run. The cut is not tuned end to end (DESIGN.md, "Wide-domain
/// sweeps").
constexpr size_t kPoolSweepMinSize = size_t{1} << 16;

/// Kernel blocks per job of a pool sweep: 2^14 elements, 256 KB of dstar
/// and counts.
constexpr size_t kJobBlocks = 16;
constexpr size_t kJobSize = kJobBlocks * kKernelBlock;

/// The dense sweep: each active interval's FusedCountsZKernel result goes
/// to its z slot, and the z values are Kahan-summed in interval order into
/// the total. Below kPoolSweepMinSize elements the whole partition is one
/// inline run that adds each z to the total as it goes. From there on the
/// sweep is cut into jobs of at most kJobSize elements for the shared
/// pool: a job takes a run of whole intervals, and an interval wider than
/// kJobSize is cut at its kernel blocks into jobs of kJobBlocks blocks,
/// which write their block partials to slots of their own; its partials
/// are then Kahan-summed in block order, as the kernel sums them. z, the
/// total and the kernel call count are the kernel's, bit-for-bit, either
/// way.
void DenseZ(const int64_t* counts, double m, const double* dstar,
            const Partition& partition, double aeps_cut,
            const std::vector<bool>* active_intervals, ZStatResult& result) {
  const auto active = [&](size_t j) {
    return active_intervals == nullptr || (*active_intervals)[j];
  };
  // Whole intervals [begin, end); the total, when given, takes each z in
  // order while the sweep is still on it.
  const auto run = [&](size_t begin, size_t end, KahanSum* total) {
    for (size_t j = begin; j < end; ++j) {
      if (!active(j)) continue;
      const Interval& iv = partition.interval(j);
      result.z[j] = FusedCountsZKernel(dstar + iv.begin, counts + iv.begin,
                                       iv.size(), m, aeps_cut);
      if (total != nullptr) total->Add(result.z[j]);
    }
  };
  const size_t big_k = partition.NumIntervals();
  KahanSum total;
  if (partition.domain_size() < kPoolSweepMinSize) {
    run(0, big_k, &total);
    result.total = total.Total();
    return;
  }
  struct Job {
    size_t begin, end;  // whole intervals [begin, end), when first == last
    size_t first, last, slot;  // else kernel blocks of interval `begin`
  };
  struct Split {
    size_t interval, slot, blocks;
  };
  std::vector<Job> jobs;
  std::vector<Split> splits;
  size_t slots = 0;
  size_t run_begin = 0, run_size = 0;
  bool run_open = false;
  const auto close_run = [&](size_t end) {
    if (run_open) jobs.push_back(Job{run_begin, end, 0, 0, 0});
    run_begin = end;
    run_size = 0;
    run_open = false;
  };
  for (size_t j = 0; j < big_k; ++j) {
    if (!active(j)) continue;
    const size_t size = partition.interval(j).size();
    if (size > kJobSize) {
      close_run(j);
      const size_t blocks = (size + kKernelBlock - 1) / kKernelBlock;
      splits.push_back(Split{j, slots, blocks});
      for (size_t first = 0; first < blocks; first += kJobBlocks) {
        jobs.push_back(Job{j, j + 1, first,
                           std::min(blocks, first + kJobBlocks),
                           slots + first});
      }
      slots += blocks;
      run_begin = j + 1;
      continue;
    }
    if (run_size + size > kJobSize) close_run(j);
    run_size += size;
    run_open = true;
  }
  close_run(big_k);
  std::vector<double> partials(slots);
  ParallelFor(static_cast<int64_t>(jobs.size()),
              ThreadPool::Shared().size() + 1, [&](int64_t i) {
                const Job& job = jobs[static_cast<size_t>(i)];
                if (job.first == job.last) {
                  run(job.begin, job.end, nullptr);
                  return;
                }
                const Interval& iv = partition.interval(job.begin);
                FusedCountsZPartials(dstar + iv.begin, counts + iv.begin,
                                     iv.size(), m, aeps_cut, job.first,
                                     job.last, partials.data() + job.slot);
              });
  for (const Split& split : splits) {
    KahanSum zj;
    for (size_t b = 0; b < split.blocks; ++b) {
      zj.Add(partials[split.slot + b]);
    }
    result.z[split.interval] = zj.Total();
  }
  for (size_t j = 0; j < big_k; ++j) {
    if (active(j)) total.Add(result.z[j]);
  }
  result.total = total.Total();
}

}  // namespace

Result<ZStatResult> ComputeZStatistics(const CountVector& counts, double m,
                                       std::span<const double> dstar,
                                       const Partition& partition, double eps,
                                       const ZStatOptions& options,
                                       const std::vector<bool>* active_intervals) {
  if (counts.size() != dstar.size() ||
      partition.domain_size() != dstar.size()) {
    return Status::InvalidArgument("counts/dstar/partition size mismatch");
  }
  if (!(m > 0.0)) return Status::InvalidArgument("m must be positive");
  if (!(eps > 0.0) || eps > 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1]");
  }
  if (active_intervals != nullptr &&
      active_intervals->size() != partition.NumIntervals()) {
    return Status::InvalidArgument("active_intervals size mismatch");
  }
  const double aeps_cut =
      options.aeps_factor * eps / static_cast<double>(dstar.size());
  ZStatResult result;
  result.z.assign(partition.NumIntervals(), 0.0);
  if (!counts.is_sparse()) {
    // Dense counts: the fused kernel converts each int64 count in-register
    // and feeds it straight into the reduction — one pass over the interval
    // instead of stage-then-reduce. Bit-identity with the staged path below
    // holds because the fused kernel takes the identical blocked summation
    // order (and the KahanSum wrapping each staged block is exact on block
    // partials), preserving the bit-identical dense/sparse contract.
    DenseZ(counts.counts().data(), m, dstar.data(), partition, aeps_cut,
           active_intervals, result);
    return result;
  }
  // Sparse counts: partition intervals ascend, so one forward cursor reads
  // the counts in O(1) amortized per element; counts are staged through a
  // fixed-size block buffer and reduced by the shared accumulation kernel,
  // the same summation order as the dense fused path above.
  CountVector::Cursor reader(counts);
  std::array<double, kKernelBlock> block;
  KahanSum total;
  for (size_t j = 0; j < partition.NumIntervals(); ++j) {
    if (active_intervals != nullptr && !(*active_intervals)[j]) continue;
    const Interval& iv = partition.interval(j);
    KahanSum zj;
    for (size_t base = iv.begin; base < iv.end; base += kKernelBlock) {
      const size_t len = std::min(kKernelBlock, iv.end - base);
      for (size_t i = 0; i < len; ++i) {
        block[i] = static_cast<double>(reader.At(base + i));
      }
      zj.Add(ZAccumulateKernel(dstar.data() + base, block.data(), len, m,
                               aeps_cut));
    }
    result.z[j] = zj.Total();
    total.Add(result.z[j]);
  }
  result.total = total.Total();
  return result;
}

double ExpectedZ(std::span<const double> d, std::span<const double> dstar,
                 const Interval& interval, double m, double eps,
                 const ZStatOptions& options) {
  HISTEST_CHECK_EQ(d.size(), dstar.size());
  HISTEST_CHECK_LE(interval.end, d.size());
  const double aeps_cut =
      options.aeps_factor * eps / static_cast<double>(dstar.size());
  KahanSum acc;
  for (size_t i = interval.begin; i < interval.end; ++i) {
    if (dstar[i] < aeps_cut) continue;
    const double dev = d[i] - dstar[i];
    acc.Add(dev * dev / dstar[i]);
  }
  return m * acc.Total();
}

}  // namespace histest
