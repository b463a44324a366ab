#ifndef HISTEST_HISTEST_H_
#define HISTEST_HISTEST_H_

/// Umbrella header for the histest library: testing, learning, and
/// summarizing histogram distributions from samples.
///
/// The primary entry points are:
///  - HistogramTester (core/histogram_tester.h): the paper's Algorithm 1 —
///    is the unknown distribution a k-histogram, or eps-far from all of
///    them?
///  - FindSmallestAcceptedK + LearnKHistogramFromOracle
///    (histogram/model_select.h): the model-selection pipeline.
///  - SummarizeColumn (app/summary.h): the database workflow end to end.
///  - EstimateDistanceToHk (testing/distance_estimator.h): the tolerant
///    companion.
///
/// See README.md for the architecture and EXPERIMENTS.md for the
/// reproduction results.

#include "app/column_sketch.h"
#include "app/csv.h"
#include "app/reservoir.h"
#include "app/selectivity.h"
#include "app/summary.h"
#include "common/cli.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "core/approx_part.h"
#include "core/histogram_tester.h"
#include "core/hk_check.h"
#include "core/kmodal_tester.h"
#include "core/learner.h"
#include "core/sieve.h"
#include "dist/continuous.h"
#include "dist/distance.h"
#include "dist/distribution.h"
#include "dist/empirical.h"
#include "dist/generators.h"
#include "dist/interval.h"
#include "dist/perturb.h"
#include "dist/piecewise.h"
#include "dist/sampler.h"
#include "dist/serialize.h"
#include "histogram/breakpoints.h"
#include "histogram/classic.h"
#include "histogram/distance_to_hk.h"
#include "histogram/fit_dp.h"
#include "histogram/fit_merge.h"
#include "histogram/flatten.h"
#include "histogram/modality.h"
#include "histogram/model_select.h"
#include "lowerbound/eps_scaling.h"
#include "lowerbound/paninski_family.h"
#include "lowerbound/permutation.h"
#include "lowerbound/reduction.h"
#include "lowerbound/support_size_family.h"
#include "stats/bounds.h"
#include "stats/collision.h"
#include "stats/poissonization.h"
#include "stats/support_size.h"
#include "stats/zstat.h"
#include "testing/baseline_cdgr.h"
#include "testing/baseline_ilr.h"
#include "testing/distance_estimator.h"
#include "testing/explicit_partition.h"
#include "testing/identity_adk.h"
#include "testing/naive_tester.h"
#include "testing/oracle.h"
#include "testing/tester.h"
#include "testing/uniformity.h"

#endif  // HISTEST_HISTEST_H_
