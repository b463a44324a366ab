#include "common/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace histest {

namespace {

/// Registry behind ShouldWarnOnceForEnv. The Mutex is constant-initialized
/// (constexpr constructor), so it is usable however early a static
/// initializer first parses an environment knob; the set is allocated on
/// first use and deliberately leaked (process-lifetime state, like the
/// metric handles in obs/metrics.cc).
Mutex g_env_warn_mu;
std::set<std::pair<std::string, std::string>>* g_env_warned
    HISTEST_GUARDED_BY(g_env_warn_mu) = nullptr;

}  // namespace

bool ShouldWarnOnceForEnv(const char* name, const std::string& raw) {
  MutexLock lock(g_env_warn_mu);
  if (g_env_warned == nullptr) {
    g_env_warned = new std::set<std::pair<std::string, std::string>>();
  }
  // A (name, value) pair, not a concatenated key: "X" + "y=z" must not
  // collide with "X=y" + "z".
  return g_env_warned->emplace(name, raw).second;
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

bool ArgParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

int64_t ArgParser::GetInt(const std::string& name, int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  HISTEST_CHECK(end != nullptr && *end == '\0');
  return v;
}

double ArgParser::GetDouble(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  HISTEST_CHECK(end != nullptr && *end == '\0');
  return v;
}

std::string ArgParser::GetString(const std::string& name,
                                 std::string fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

bool ArgParser::GetBool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  HISTEST_CHECK(false);
  return fallback;
}

EnvValue<int64_t> ParseEnvInt(const char* name, int64_t min_value,
                              int64_t max_value, int64_t fallback) {
  EnvValue<int64_t> out;
  out.value = fallback;
  const char* env = std::getenv(name);
  if (env == nullptr) return out;
  out.present = true;
  out.raw = env;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || end == nullptr || *end != '\0' || errno == ERANGE) {
    out.valid = false;
    out.error = "not an integer";
    return out;
  }
  if (v < min_value || v > max_value) {
    out.valid = false;
    out.error = "out of range [" + std::to_string(min_value) + ", " +
                std::to_string(max_value) + "]";
    return out;
  }
  out.value = v;
  return out;
}

EnvValue<double> ParseEnvDouble(const char* name, double fallback) {
  EnvValue<double> out;
  out.value = fallback;
  const char* env = std::getenv(name);
  if (env == nullptr) return out;
  out.present = true;
  out.raw = env;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || end == nullptr || *end != '\0') {
    out.valid = false;
    out.error = "not a number";
    return out;
  }
  if (!(v > 0.0) || !std::isfinite(v)) {
    out.valid = false;
    out.error = "must be a positive finite number";
    return out;
  }
  out.value = v;
  return out;
}

EnvValue<bool> ParseEnvFlag(const char* name, bool fallback) {
  EnvValue<bool> out;
  out.value = fallback;
  const char* env = std::getenv(name);
  if (env == nullptr) return out;
  out.present = true;
  out.raw = env;
  out.value = *env != '\0' && std::strcmp(env, "0") != 0;
  return out;
}

EnvValue<std::string> ParseEnvString(const char* name, std::string fallback) {
  EnvValue<std::string> out;
  out.value = std::move(fallback);
  const char* env = std::getenv(name);
  if (env == nullptr) return out;
  out.present = true;
  out.raw = env;
  out.value = env;
  return out;
}

std::vector<EnvKnob> SnapshotEnvKnobs() {
  // Canonical inventory of every environment knob the library consults.
  // Keep sorted; SnapshotEnvKnobs() order is the manifest `env` block order
  // and tests assert full coverage.
  static constexpr const char* kKnobs[] = {
      "HISTEST_BENCH_SCALE",
      "HISTEST_FLIGHT_RECORDER",
      "HISTEST_FLIGHT_RECORDER_OUT",
      "HISTEST_THREADS",
      "HISTEST_TRACE",
  };
  std::vector<EnvKnob> out;
  out.reserve(std::size(kKnobs));
  for (const char* name : kKnobs) {
    EnvKnob knob;
    knob.name = name;
    const char* env = std::getenv(name);
    if (env != nullptr) {
      knob.present = true;
      knob.raw = env;
    }
    out.push_back(std::move(knob));
  }
  return out;
}

double BenchScale() {
  const EnvValue<double> v = ParseEnvDouble("HISTEST_BENCH_SCALE", 1.0);
  return v.valid ? v.value : 1.0;
}

int64_t ScaledTrials(int64_t base) {
  const double scaled = std::round(static_cast<double>(base) * BenchScale());
  return scaled < 1.0 ? 1 : static_cast<int64_t>(scaled);
}

}  // namespace histest
