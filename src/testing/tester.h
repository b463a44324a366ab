#ifndef HISTEST_TESTING_TESTER_H_
#define HISTEST_TESTING_TESTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/empirical.h"

namespace histest {

/// The two possible outputs of a property tester.
enum class Verdict {
  kAccept,
  kReject,
};

const char* VerdictToString(Verdict v);

/// Abstract source of iid samples from an unknown distribution over [0, n).
/// This is the only access testers have to the data, mirroring the
/// distribution-testing model; the oracle counts every draw so sample
/// complexity is measured, not trusted.
class SampleOracle {
 public:
  virtual ~SampleOracle() = default;

  /// Domain size n.
  virtual size_t DomainSize() const = 0;

  /// Draws one sample (an element of [0, n)).
  virtual size_t Draw() = 0;

  /// Total number of samples drawn so far.
  virtual int64_t SamplesDrawn() const = 0;

  /// Draws `count` samples into `out`. Defined to be stream-identical to
  /// `count` repeated Draw() calls; backends override it to sample in a
  /// tight loop with no per-sample virtual dispatch.
  virtual void DrawBatch(size_t* out, int64_t count);

  /// Draws `count` samples and returns their count vector. The
  /// representation is chosen by CountVector::ShapedFor (sparse when count
  /// is far below the domain size). The counts are distributed as `count`
  /// iid Draw() calls; this base implementation makes exactly those calls,
  /// so it is the stream reference. Backends override it: to fill the
  /// counts from batched draws (stream-identical), or, for dense shapes,
  /// to draw the whole vector at the count level (exact in distribution,
  /// not stream-identical; see DistributionOracle).
  virtual CountVector DrawCounts(int64_t count);

  /// Draws `count` samples.
  std::vector<size_t> DrawMany(int64_t count);
};

/// A tester's verdict together with its measured cost and a human-readable
/// provenance string (which stage decided, with what statistic values).
struct TestOutcome {
  Verdict verdict = Verdict::kReject;
  int64_t samples_used = 0;
  std::string detail;
};

/// Interface of all distribution property testers in the library. Test() is
/// one run with the tester's configured soundness (>= 2/3 correctness);
/// callers amplify externally when they need lower failure probability.
class DistributionTester {
 public:
  virtual ~DistributionTester() = default;

  virtual std::string Name() const = 0;

  /// Runs the test against the oracle. Returns an error Status only for
  /// structural problems (domain mismatch, invalid parameters), never for
  /// statistical rejection — that is a kReject verdict.
  virtual Result<TestOutcome> Test(SampleOracle& oracle) = 0;
};

}  // namespace histest

#endif  // HISTEST_TESTING_TESTER_H_
