// bench_e2e: end-to-end benchmark of HistogramTester::Test.
//
// One process runs one workload: it builds the workload's instance grid
// from --seed, warms up, then runs a closed loop (one client; the pooled
// workload runs the trial harness on its threads) of Test calls, going
// round-robin over the instances, each call timed from the outside.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--scale F]
//
// --trace 0 prints the end-to-end metrics; --trace 1 additionally runs a
// stage-timed replica of the tester (no in-library tracing) and prints the
// per-layer metrics. Every metric is printed as "metric <name> <value>
// <unit>"; the last line is one JSON object with the metrics of the mode.
// --scale shrinks the fixed round and set-up counts (smoke tests).
// Exit code 0 only when every Test returned OK, every instance's
// wrong-verdict rate is at most 1/3, and (--trace 1) the replica agrees
// with TestWithReport.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "benchutil/parallel.h"
#include "benchutil/workloads.h"
#include "common/cli.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "core/histogram_tester.h"
#include "dist/sampler.h"
#include "e2e_layers.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "testing/oracle.h"

namespace histest {
namespace bench {
namespace {

struct Workload {
  const char* name;
  size_t n;
  size_t k;
  double eps;
  bool pooled;
};

// Each workload loads a different layer; README.md gives the reasons.
constexpr Workload kWorkloads[] = {
    {"sample-bound", size_t{1} << 14, 4, 0.25, false},
    {"dp-bound", size_t{1} << 10, 16, 0.25, false},
    {"wide-domain", size_t{1} << 18, 4, 0.25, false},
    {"pooled", size_t{1} << 14, 4, 0.25, true},
};

constexpr uint64_t kDefaultSeed = 20230601;
// Rounds every run completes whatever --seconds says: 13 rounds of 8
// instances are >= 100 tests, so p90 has >= 10 samples beyond it. The
// seed-determined counts (samples, verdicts) are taken over exactly these
// rounds, so they repeat bit for bit for a fixed seed.
constexpr int kMinRounds = 13;
constexpr int kSetupReps = 3;
// Trials per EstimateAcceptanceParallel call in the pooled workload.
constexpr int kPooledTrials = 4;

const obs::Clock& Clock() { return *obs::MonotonicClock::Get(); }

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(Clock().NowNanos() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile q in [0, 1] of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The outcome of one timed Test call.
struct TestRecord {
  int round = 0;
  size_t instance = 0;
  bool in_class = true;
  double seconds = 0.0;
  int64_t samples = 0;
  bool failed = false;
  bool wrong = false;
  StageSplit split;  // filled on traced runs only
};

class RecordSink {
 public:
  void Add(TestRecord record) {
    MutexLock lock(mu_);
    records_.push_back(std::move(record));
  }
  std::vector<TestRecord> Take() {
    MutexLock lock(mu_);
    return std::move(records_);
  }

 private:
  Mutex mu_;
  std::vector<TestRecord> records_ HISTEST_GUARDED_BY(mu_);
};

/// Decorator timing the wrapped tester's Test() from the outside and
/// recording its outcome; `split` (nullable) is the wrapped replica's.
class RecordingTester : public DistributionTester {
 public:
  RecordingTester(std::unique_ptr<DistributionTester> inner,
                  const StageSplit* split, RecordSink& sink,
                  TestRecord proto)
      : inner_(std::move(inner)), split_(split), sink_(sink),
        proto_(std::move(proto)) {}

  std::string Name() const override { return inner_->Name(); }

  Result<TestOutcome> Test(SampleOracle& oracle) override {
    const int64_t start = Clock().NowNanos();
    auto outcome = inner_->Test(oracle);
    TestRecord record = proto_;
    record.seconds = SecondsSince(start);
    record.failed = !outcome.ok();
    if (outcome.ok()) {
      record.samples = outcome.value().samples_used;
      record.wrong =
          (outcome.value().verdict == Verdict::kAccept) != record.in_class;
    }
    if (split_ != nullptr) record.split = *split_;
    sink_.Add(std::move(record));
    return outcome;
  }

 private:
  std::unique_ptr<DistributionTester> inner_;
  const StageSplit* split_;
  RecordSink& sink_;
  TestRecord proto_;
};

std::unique_ptr<DistributionTester> MakeRecordedTester(
    const Workload& w, bool traced, uint64_t seed, RecordSink& sink,
    TestRecord proto) {
  if (traced) {
    auto staged = std::make_unique<StageTimedTester>(
        w.k, w.eps, HistogramTesterOptions{}, seed);
    const StageSplit* split = &staged->last();
    return std::make_unique<RecordingTester>(std::move(staged), split, sink,
                                             std::move(proto));
  }
  return std::make_unique<RecordingTester>(
      std::make_unique<HistogramTester>(w.k, w.eps, HistogramTesterOptions{},
                                        seed),
      nullptr, sink, std::move(proto));
}

struct Setup {
  std::vector<WorkloadInstance> grid;
  std::vector<std::shared_ptr<const AliasSampler>> samplers;
  Rng stream{0};  // per-round seeds, continued from the warm-up round
  uint64_t fingerprint = 0;
  double grid_s = 0.0;
  double sampler_s = 0.0;
  double warmup_s = 0.0;
};

struct RunConfig {
  const Workload* workload = nullptr;
  int threads = 1;
  int min_rounds = kMinRounds;
};

/// Runs one round: every instance once (kPooledTrials times, on the trial
/// harness, for the pooled workload).
void RunRound(const RunConfig& cfg, const Setup& setup, int round,
              uint64_t round_seed, bool traced, RecordSink& sink) {
  const Workload& w = *cfg.workload;
  Rng rng(round_seed);
  for (size_t i = 0; i < setup.grid.size(); ++i) {
    TestRecord proto;
    proto.round = round;
    proto.instance = i;
    proto.in_class = setup.grid[i].side == InstanceSide::kInClass;
    if (w.pooled) {
      const SeededTesterFactory factory = [&](uint64_t seed) {
        return MakeRecordedTester(w, traced, seed, sink, proto);
      };
      // A failed trial is already in the sink; the harness stops the call.
      (void)EstimateAcceptanceParallel(factory, setup.grid[i].dist,
                                       kPooledTrials, rng.Next(),
                                       cfg.threads);
      continue;
    }
    DistributionOracle oracle(setup.samplers[i], rng.Next());
    auto tester = MakeRecordedTester(w, traced, rng.Next(), sink, proto);
    (void)tester->Test(oracle);  // the record carries the status
  }
}

uint64_t Fingerprint(const std::vector<WorkloadInstance>& grid) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the pmf bits
  for (const auto& inst : grid) {
    for (double p : inst.dist.pmf()) {
      uint64_t bits = 0;
      std::memcpy(&bits, &p, sizeof(bits));
      h = (h ^ bits) * 1099511628211ull;
    }
  }
  return h;
}

Result<Setup> BuildSetup(const RunConfig& cfg, uint64_t seed) {
  const Workload& w = *cfg.workload;
  Setup setup;
  int64_t start = Clock().NowNanos();
  Rng rng(seed);
  auto grid = MakeWorkloadGrid(w.n, w.k, w.eps, rng);
  HISTEST_RETURN_IF_ERROR(grid.status());
  setup.grid = std::move(grid).value();
  setup.stream = Rng(rng.Next());
  setup.grid_s = SecondsSince(start);

  start = Clock().NowNanos();
  for (const auto& inst : setup.grid) {
    setup.samplers.push_back(std::make_shared<const AliasSampler>(inst.dist));
  }
  setup.sampler_s = SecondsSince(start);

  start = Clock().NowNanos();
  RecordSink warmup;
  RunRound(cfg, setup, -1, setup.stream.Next(), false, warmup);
  for (const TestRecord& r : warmup.Take()) {
    if (r.failed) return Status::Internal("warm-up Test failed");
  }
  setup.warmup_s = SecondsSince(start);
  setup.fingerprint = Fingerprint(setup.grid);
  return setup;
}

struct Phase {
  std::vector<TestRecord> records;
  std::vector<double> round_wall_s;  // one entry per round run
  double wall_s = 0.0;
};

/// Registry counters the traced run reads, summed over their families.
struct Counters {
  int64_t dp_cost_probes = 0;
  int64_t kernel_calls = 0;
};

Counters ReadCounters() {
  Counters c;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().Snapshot().counters) {
    if (name == obs::names::kFitDpL1FastCostProbes ||
        name == obs::names::kFitDpL1ReferenceCostProbes) {
      c.dp_cost_probes += value;
    }
    const std::string_view v(name);
    if (v.starts_with("histest.kernel.") && v.ends_with(".calls")) {
      c.kernel_calls += value;
    }
  }
  return c;
}

/// Whole rounds until both min_rounds and `budget_s` are reached.
Phase RunPhase(const RunConfig& cfg, const Setup& setup, Rng stream,
               double budget_s, bool traced) {
  Phase phase;
  RecordSink sink;
  const int64_t start = Clock().NowNanos();
  for (int round = 0; round < cfg.min_rounds || SecondsSince(start) < budget_s;
       ++round) {
    const int64_t round_start = Clock().NowNanos();
    RunRound(cfg, setup, round, stream.Next(), traced, sink);
    phase.round_wall_s.push_back(SecondsSince(round_start));
  }
  phase.wall_s = SecondsSince(start);
  phase.records = sink.Take();
  return phase;
}

/// Name -> (value, unit), printed in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  void Print() const {
    for (const auto& e : entries_) {
      std::printf("metric %s %.9g %s\n", e.name.c_str(), e.value, e.unit);
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    entries_[i].name.c_str(), entries_[i].value,
                    entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

bool InPrefix(const TestRecord& r, const RunConfig& cfg) {
  return r.round < cfg.min_rounds;
}

struct Verdicts {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed_prefix = 0;
  int64_t wrong_prefix = 0;
  bool instances_ok = true;
};

/// Failures over all tests; verdict errors over the seed-determined prefix,
/// per instance against the paper's 2/3 guarantee.
Verdicts CheckVerdicts(const Phase& phase, const RunConfig& cfg,
                       size_t instances) {
  Verdicts v;
  std::vector<int64_t> done(instances, 0);
  std::vector<int64_t> wrong(instances, 0);
  for (const TestRecord& r : phase.records) {
    ++v.attempted;
    if (r.failed) {
      ++v.failed;
      continue;
    }
    if (!InPrefix(r, cfg)) continue;
    ++done[r.instance];
    if (r.wrong) ++wrong[r.instance];
  }
  for (size_t i = 0; i < instances; ++i) {
    v.completed_prefix += done[i];
    v.wrong_prefix += wrong[i];
    if (3 * wrong[i] > done[i]) v.instances_ok = false;
  }
  return v;
}

/// The median Test time of each instance, in ms.
std::vector<double> InstanceMediansMs(const Phase& phase, size_t instances) {
  std::vector<std::vector<double>> ms(instances);
  for (const TestRecord& r : phase.records) {
    if (!r.failed) ms[r.instance].push_back(r.seconds * 1e3);
  }
  std::vector<double> medians;
  for (auto& v : ms) medians.push_back(Median(std::move(v)));
  return medians;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// The end-to-end metrics. A shared host slows whole stretches of a run,
/// and the grid's instances take distinct times, so a quantile over all
/// tests lands in the gap between two instances and follows the bursts.
/// Each timing is therefore a median per instance or per round first.
void AddEndToEnd(const Phase& phase, const RunConfig& cfg, size_t instances,
                 const std::vector<double>& setup_s, MetricSet& m) {
  std::vector<double> round_tests(phase.round_wall_s.size(), 0.0);
  std::vector<double> round_samples(phase.round_wall_s.size(), 0.0);
  double prefix_samples = 0.0;
  double prefix_tests = 0.0;
  for (const TestRecord& r : phase.records) {
    if (r.failed) continue;
    round_tests[r.round] += 1.0;
    round_samples[r.round] += static_cast<double>(r.samples);
    if (InPrefix(r, cfg)) {
      prefix_samples += static_cast<double>(r.samples);
      prefix_tests += 1.0;
    }
  }
  const std::vector<double> medians = InstanceMediansMs(phase, instances);
  std::vector<double> tests_rate;
  std::vector<double> samples_rate;
  for (size_t r = 0; r < phase.round_wall_s.size(); ++r) {
    tests_rate.push_back(round_tests[r] / phase.round_wall_s[r]);
    samples_rate.push_back(round_samples[r] / phase.round_wall_s[r]);
  }
  m.Add("test_ms_p50", Mean(medians), "ms");
  m.Add("test_ms_slowest", *std::max_element(medians.begin(), medians.end()),
        "ms");
  m.Add("tests_per_s", Median(tests_rate), "1/s");
  m.Add("samples_per_s", Median(samples_rate), "1/s");
  m.Add("samples_per_test", prefix_samples / std::max(1.0, prefix_tests),
        "count");
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(const Phase& traced, const Phase& untraced,
                 const Counters& counted, const RunConfig& cfg,
                 const std::vector<Setup>& setups, size_t instances,
                 MetricSet& m) {
  // Per-test means over every completed traced test; oracle.samples over
  // the prefix rounds only, so it is exact for a seed.
  std::array<double, kStages> stage_s{};
  std::array<double, kStages> oracle_s{};
  std::array<double, kStages> samples{};
  std::array<double, kStages> calls{};
  std::array<double, kStages> ran{};
  double tests = 0.0;
  double wall_s = 0.0;
  double rounds = 0.0;
  double sieve_decided = 0.0;
  double intervals = 0.0;
  double prefix_samples = 0.0;
  double prefix_tests = 0.0;
  for (const TestRecord& r : traced.records) {
    if (r.failed) continue;
    tests += 1.0;
    wall_s += r.seconds;
    for (int s = 0; s < kStages; ++s) {
      stage_s[s] += static_cast<double>(r.split.nanos[s]) * 1e-9;
      oracle_s[s] += static_cast<double>(r.split.oracle_nanos[s]) * 1e-9;
      samples[s] += static_cast<double>(r.split.samples[s]);
      calls[s] += static_cast<double>(r.split.oracle_calls[s]);
      ran[s] += r.split.ran[s] ? 1.0 : 0.0;
    }
    rounds += r.split.sieve_rounds;
    if (r.split.decided_by == "sieve") sieve_decided += 1.0;
    intervals += static_cast<double>(r.split.partition_size);
    if (InPrefix(r, cfg)) {
      prefix_samples += static_cast<double>(r.split.samples_total);
      prefix_tests += 1.0;
    }
  }
  tests = std::max(1.0, tests);
  const double ptests = std::max(1.0, prefix_tests);
  double all_oracle_s = 0.0;
  double all_calls = 0.0;
  double all_samples = 0.0;
  double all_stage_s = 0.0;
  for (int s = 0; s < kStages; ++s) {
    all_oracle_s += oracle_s[s];
    all_calls += calls[s];
    all_samples += samples[s];
    all_stage_s += stage_s[s];
  }
  const auto per_test = [&](double total) { return total / tests; };

  m.Add("oracle.s", per_test(all_oracle_s), "s");
  m.Add("oracle.calls", per_test(all_calls), "count");
  m.Add("oracle.samples", prefix_samples / ptests, "count");
  m.Add("oracle.ns_per_sample",
        all_samples > 0.0 ? all_oracle_s * 1e9 / all_samples : 0.0, "ns");
  m.Add("approx_part.oracle_s", per_test(oracle_s[kApproxPart]), "s");
  m.Add("learner.oracle_s", per_test(oracle_s[kLearner]), "s");
  m.Add("sieve.oracle_s", per_test(oracle_s[kSieve]), "s");
  m.Add("final.oracle_s", per_test(oracle_s[kFinal]), "s");
  m.Add("approx_part.s", per_test(stage_s[kApproxPart]), "s");
  m.Add("approx_part.intervals", per_test(intervals), "count");
  m.Add("learner.s", per_test(stage_s[kLearner]), "s");
  m.Add("learner.self_s", per_test(stage_s[kLearner] - oracle_s[kLearner]),
        "s");
  m.Add("learner.samples", per_test(samples[kLearner]), "count");
  m.Add("expand.s", per_test(stage_s[kExpand]), "s");
  m.Add("sieve.s", per_test(stage_s[kSieve]), "s");
  m.Add("sieve.self_s", per_test(stage_s[kSieve] - oracle_s[kSieve]), "s");
  m.Add("sieve.samples", per_test(samples[kSieve]), "count");
  m.Add("sieve.passes", per_test(calls[kSieve]), "count");
  m.Add("sieve.rounds", per_test(rounds), "count");
  m.Add("sieve.decided_frac", per_test(sieve_decided), "fraction");
  m.Add("check.s", per_test(stage_s[kCheck]), "s");
  m.Add("check.calls", per_test(ran[kCheck]), "count");
  const double cross_tests = static_cast<double>(instances);
  m.Add("check.dp_cost_probes",
        static_cast<double>(counted.dp_cost_probes) / cross_tests, "count");
  m.Add("final.s", per_test(stage_s[kFinal]), "s");
  m.Add("final.self_s", per_test(stage_s[kFinal] - oracle_s[kFinal]), "s");
  m.Add("final.samples", per_test(samples[kFinal]), "count");
  m.Add("kernels.calls",
        static_cast<double>(counted.kernel_calls) / cross_tests, "count");

  double busy_s = 0.0;
  for (const TestRecord& r : untraced.records) busy_s += r.seconds;
  m.Add("harness.busy_frac",
        busy_s / (static_cast<double>(cfg.threads) * untraced.wall_s),
        "fraction");

  std::vector<double> grid_s;
  std::vector<double> sampler_s;
  std::vector<double> warmup_s;
  for (const Setup& s : setups) {
    grid_s.push_back(s.grid_s);
    sampler_s.push_back(s.sampler_s);
    warmup_s.push_back(s.warmup_s);
  }
  m.Add("setup.grid_s", Median(grid_s), "s");
  m.Add("setup.sampler_s", Median(sampler_s), "s");
  m.Add("setup.warmup_s", Median(warmup_s), "s");
  m.Add("tester.other_s", per_test(wall_s - all_stage_s), "s");
  m.Add("trace.overhead_frac",
        Mean(InstanceMediansMs(traced, instances)) /
                Mean(InstanceMediansMs(untraced, instances)) -
            1.0,
        "fraction");
}

struct CrossCheck {
  bool agree = true;
  Counters counted;  // deltas over the replica tests, one per instance
};

/// First-round cross-check: the replica must reproduce TestWithReport on
/// the same oracle and tester seeds, one test per instance. The registry
/// counts only these replica tests, so its cost stays out of the timings.
CrossCheck RunCrossCheck(const RunConfig& cfg, const Setup& setup,
                         Rng stream) {
  const Workload& w = *cfg.workload;
  Rng rng(stream.Next());
  CrossCheck result;
  for (size_t i = 0; i < setup.grid.size(); ++i) {
    const uint64_t oracle_seed = rng.Next();
    const uint64_t tester_seed = rng.Next();
    DistributionOracle reference_oracle(setup.samplers[i], oracle_seed);
    HistogramTester reference(w.k, w.eps, HistogramTesterOptions{},
                              tester_seed);
    auto report = reference.TestWithReport(reference_oracle);
    DistributionOracle replica_oracle(setup.samplers[i], oracle_seed);
    StageTimedTester replica(w.k, w.eps, HistogramTesterOptions{},
                             tester_seed);
    obs::SetEnabled(true);
    const Counters before = ReadCounters();
    auto outcome = replica.Test(replica_oracle);
    const Counters after = ReadCounters();
    obs::SetEnabled(false);
    result.counted.dp_cost_probes +=
        after.dp_cost_probes - before.dp_cost_probes;
    result.counted.kernel_calls += after.kernel_calls - before.kernel_calls;
    if (!report.ok() || !outcome.ok()) {
      result.agree = false;
      return result;
    }
    const HistogramTestReport& r = report.value();
    const StageSplit& s = replica.last();
    const bool same = r.verdict == s.verdict && r.decided_by == s.decided_by &&
                      r.samples_total == s.samples_total &&
                      r.partition_size == s.partition_size &&
                      r.removed_intervals == s.removed_intervals;
    if (!same) {
      std::fprintf(stderr,
                   "replica mismatch on %s: verdict %s/%s decided_by %s/%s "
                   "samples %" PRId64 "/%" PRId64 " K %zu/%zu removed "
                   "%zu/%zu\n",
                   setup.grid[i].name.c_str(), VerdictToString(r.verdict),
                   VerdictToString(s.verdict), r.decided_by.c_str(),
                   s.decided_by.c_str(), r.samples_total, s.samples_total,
                   r.partition_size, s.partition_size, r.removed_intervals,
                   s.removed_intervals);
      result.agree = false;
    }
  }
  return result;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  const int64_t process_start = Clock().NowNanos();
  const ArgParser args(argc, argv);
  const std::string name = args.GetString("workload", "");
  RunConfig cfg;
  cfg.workload = FindWorkload(name);
  if (cfg.workload == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown --workload '%s'; one of:",
                 name.c_str());
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *cfg.workload;
  const uint64_t seed =
      static_cast<uint64_t>(args.GetInt("seed", static_cast<int64_t>(kDefaultSeed)));
  const double seconds = args.GetDouble("seconds", 10.0);
  const bool traced = args.GetInt("trace", 0) != 0;
  const double scale = args.GetDouble("scale", 1.0);
  if (!(scale > 0.0) || !(seconds >= 0.0)) {
    std::fprintf(stderr, "bench_e2e: --scale must be > 0, --seconds >= 0\n");
    return 2;
  }
  // A traced run holds two phases (untraced, traced) of half the rounds.
  const double rounds = kMinRounds * scale * (traced ? 0.5 : 1.0);
  cfg.min_rounds = std::max(1, static_cast<int>(std::ceil(rounds)));
  const int setup_reps =
      std::max(1, static_cast<int>(std::lround(kSetupReps * scale)));
  cfg.threads = w.pooled ? std::min(2, AvailableCpus()) : 1;

  // Set up several times; the last set-up is the one measured.
  std::vector<Setup> setups;
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup_reps; ++rep) {
    if (!setups.empty()) {
      // Keep only the timings of earlier set-ups, not their tables.
      setups.back().grid.clear();
      setups.back().samplers.clear();
    }
    const int64_t start = rep == 0 ? process_start : Clock().NowNanos();
    auto setup = BuildSetup(cfg, seed);
    if (!setup.ok()) {
      std::fprintf(stderr, "bench_e2e: set-up failed: %s\n",
                   setup.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(start));
    setups.push_back(std::move(setup).value());
  }
  const Setup& setup = setups.back();
  size_t in_class = 0;
  for (const auto& inst : setup.grid) {
    if (inst.side == InstanceSide::kInClass) ++in_class;
  }
  std::printf("# bench_e2e workload=%s seed=%" PRIu64 " trace=%d n=%zu "
              "k=%zu eps=%g instances=%zu in_class=%zu far=%zu threads=%d "
              "fingerprint=%016" PRIx64 "\n",
              w.name, seed, traced ? 1 : 0, w.n, w.k, w.eps,
              setup.grid.size(), in_class, setup.grid.size() - in_class,
              cfg.threads, setup.fingerprint);

  const CrossCheck cross =
      traced ? RunCrossCheck(cfg, setup, setup.stream) : CrossCheck{};

  // The traced run splits --seconds between an untraced phase (the
  // baseline for trace.overhead_frac) and the traced phase, both on the
  // same seeds.
  const double budget = traced ? seconds / 2.0 : seconds;
  const Phase untraced = RunPhase(cfg, setup, setup.stream, budget, false);
  Phase traced_phase;
  if (traced) traced_phase = RunPhase(cfg, setup, setup.stream, budget, true);

  const Verdicts v = CheckVerdicts(untraced, cfg, setup.grid.size());
  const Verdicts tv = traced ? CheckVerdicts(traced_phase, cfg,
                                             setup.grid.size())
                             : Verdicts{};
  MetricSet e2e;
  AddEndToEnd(untraced, cfg, setup.grid.size(), setup_s, e2e);
  e2e.Print();
  // Printed, not gated: the pooled p90 follows the host's bursts, and the
  // two rates are 0 on a correct run (both are checked through `correct`).
  std::vector<double> all_ms;
  for (const TestRecord& r : untraced.records) {
    if (!r.failed) all_ms.push_back(r.seconds * 1e3);
  }
  MetricSet info;
  info.Add("test_ms_p90", Quantile(all_ms, 0.9), "ms");
  info.Add("error_rate",
           static_cast<double>(v.wrong_prefix) /
               static_cast<double>(std::max<int64_t>(1, v.completed_prefix)),
           "fraction");
  info.Add("fail_rate",
           static_cast<double>(v.failed) /
               static_cast<double>(std::max<int64_t>(1, v.attempted)),
           "fraction");
  info.Print();
  MetricSet layers;
  if (traced) {
    AddPerLayer(traced_phase, untraced, cross.counted, cfg, setups,
                setup.grid.size(), layers);
    layers.Print();
  }
  std::printf("# rounds=%zu tests=%" PRId64 " wall_s=%.3f\n",
              untraced.round_wall_s.size(), v.attempted, untraced.wall_s);

  const int64_t attempted = v.attempted + tv.attempted;
  const int64_t failed = v.failed + tv.failed;
  const bool correct = failed == 0 && v.instances_ok &&
                       (!traced || (tv.instances_ok && cross.agree));
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              traced ? layers.Json().c_str() : e2e.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace histest

int main(int argc, char** argv) { return histest::bench::Main(argc, argv); }
