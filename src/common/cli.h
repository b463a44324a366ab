#ifndef HISTEST_COMMON_CLI_H_
#define HISTEST_COMMON_CLI_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace histest {

/// Minimal command-line flag parser for examples and experiment binaries.
///
/// Accepts flags of the form `--name=value` and `--name value`; a bare
/// `--name` is treated as boolean true. Unrecognized positional arguments
/// are collected in `positional()`.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// True iff the flag was passed at all.
  bool Has(const std::string& name) const;

  /// Typed getters returning `fallback` when the flag is absent. Malformed
  /// values are a fatal error (these are developer-facing binaries).
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  std::string GetString(const std::string& name, std::string fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// All parsed flags (name -> raw value), in sorted order. Experiment
  /// harnesses stamp these into the run manifest as per-run parameters.
  const std::map<std::string, std::string>& flags() const { return flags_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Outcome of parsing one environment variable. `present` is false when the
/// variable is unset (value holds the caller's fallback); `valid` is false
/// when it is set but malformed or out of range (value still holds the
/// fallback, `error` says why, `raw` echoes the offending text so callers
/// can warn without re-reading the environment).
template <typename T>
struct EnvValue {
  bool present = false;
  bool valid = true;
  T value{};
  std::string raw;
  std::string error;
};

/// Parses an integer environment variable, requiring the whole value to be
/// a base-10 integer in [min_value, max_value]. Shared by every
/// HISTEST_*-style knob so range checks and diagnostics stay uniform
/// instead of being re-implemented per call site.
EnvValue<int64_t> ParseEnvInt(const char* name, int64_t min_value,
                              int64_t max_value, int64_t fallback);

/// Parses a strictly positive, finite double environment variable.
EnvValue<double> ParseEnvDouble(const char* name, double fallback);

/// Parses a presence-style boolean environment variable: unset -> fallback;
/// set to "" or "0" -> false; any other value -> true. Matches the
/// HISTEST_TRACE convention ("set it to anything but 0 to enable") so
/// on/off knobs share one parser instead of ad-hoc std::getenv reads
/// (which the env-discipline analyzer checker now rejects outside this
/// module). A flag read is never malformed, so `valid` is always true.
EnvValue<bool> ParseEnvFlag(const char* name, bool fallback);

/// Parses a free-form string environment variable (paths, file names).
/// Never malformed: `valid` is always true; unset -> fallback.
EnvValue<std::string> ParseEnvString(const char* name, std::string fallback);

/// One HISTEST_* knob as observed in the current environment. `raw` is only
/// meaningful when `present` is true; no validation is applied here — the
/// manifest records what the process was *given*, the typed parsers above
/// decide what it *means*.
struct EnvKnob {
  const char* name;
  bool present = false;
  std::string raw;
};

/// Snapshot of every HISTEST_* environment knob the library reads, in a
/// fixed canonical order. This is the single inventory backing the
/// RunManifest `env` block: adding a knob anywhere in the codebase means
/// adding it to the list in cli.cc, so provenance can never silently lag
/// behind behavior. (cli.cc is the one module allowed to call std::getenv;
/// the env-discipline checker enforces that.)
std::vector<EnvKnob> SnapshotEnvKnobs();

/// Process-wide dedup for once-per-value environment diagnostics. Returns
/// true exactly once per distinct (name, raw value) pair; when several
/// threads race on the first read of the same bad value, exactly one of
/// them is elected to warn (the registry is guarded by an annotated
/// histest::Mutex — see common/mutex.h). Callers print their own message
/// when this returns true, keeping the formatted text at the call site.
bool ShouldWarnOnceForEnv(const char* name, const std::string& raw);

/// Global scale factor for experiment binaries, read from the environment
/// variable HISTEST_BENCH_SCALE (default 1.0). Trial counts are multiplied
/// by this, so CI can run quick smoke passes and researchers can run
/// high-fidelity sweeps with the same binaries.
double BenchScale();

/// max(1, round(base * BenchScale())).
int64_t ScaledTrials(int64_t base);

}  // namespace histest

#endif  // HISTEST_COMMON_CLI_H_
