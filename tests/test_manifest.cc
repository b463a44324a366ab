// RunManifest: field coverage against HISTEST_MANIFEST_FIELDS, the JSON
// shape, env-knob capture, and the determinism contract (byte-identical
// modulo timestamp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.h"
#include "obs/manifest.h"

namespace histest {
namespace {

/// Scoped setenv/unsetenv so env-capture tests cannot leak state.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

// The JSON keys, straight from the X-macro — the same inventory
// tools/obs_registry.py parses and trace_gate.py enforces.
std::vector<std::string> ManifestKeys() {
  std::vector<std::string> keys;
#define HISTEST_MANIFEST_KEY(key, ...) keys.push_back(#key);
  HISTEST_MANIFEST_FIELDS(HISTEST_MANIFEST_KEY)
#undef HISTEST_MANIFEST_KEY
  return keys;
}

TEST(ManifestTest, JsonCarriesEveryFieldInDeclarationOrder) {
  const obs::RunManifest m = obs::CurrentRunManifest();
  const std::string json = m.ToJson();
  size_t last_pos = 0;
  for (const std::string& key : ManifestKeys()) {
    const size_t pos = json.find("\"" + key + "\":");
    ASSERT_NE(pos, std::string::npos) << "missing key " << key << ": "
                                      << json;
    EXPECT_GT(pos, last_pos) << key << " out of order: " << json;
    last_pos = pos;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ManifestTest, CurrentManifestPopulatesProvenance) {
  const obs::RunManifest m = obs::CurrentRunManifest();
  EXPECT_EQ(m.manifest_version, obs::kManifestVersion);
  EXPECT_FALSE(m.git_describe.empty());
  EXPECT_FALSE(m.compiler.empty());
  EXPECT_EQ(m.cpu_features.rfind("arch=", 0), 0u) << m.cpu_features;
  EXPECT_GE(m.threads, 1);
  EXPECT_GE(m.pool_workers, 1);
  EXPECT_GT(m.timestamp_unix_ms, 0);
  // One entry per HISTEST_* knob the inventory knows about.
  EXPECT_EQ(m.env.size(), SnapshotEnvKnobs().size());
}

TEST(ManifestTest, EnvKnobsCaptureRawValueOrNull) {
  const ScopedEnv set("HISTEST_BENCH_SCALE", "2.5");
  const ScopedEnv unset("HISTEST_FLIGHT_RECORDER_OUT", nullptr);
  const obs::RunManifest m = obs::CurrentRunManifest();
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"HISTEST_BENCH_SCALE\":\"2.5\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"HISTEST_FLIGHT_RECORDER_OUT\":null"),
            std::string::npos)
      << json;
}

TEST(ManifestTest, DeterministicModuloTimestamp) {
  // The byte-identical contract: two captures in the same process and
  // environment must serialize identically once the timestamp is masked.
  const obs::RunManifest a = obs::CurrentRunManifest();
  const obs::RunManifest b = obs::CurrentRunManifest();
  EXPECT_EQ(a.ToJson(/*include_timestamp=*/false),
            b.ToJson(/*include_timestamp=*/false));
  // The masked form serializes the timestamp slot as 0, keeping the key
  // set identical to the stamped form.
  EXPECT_NE(a.ToJson(false).find("\"timestamp_unix_ms\":0"),
            std::string::npos);
  EXPECT_EQ(a.ToJson(false).find("\"timestamp_unix_ms\":0,"),
            a.ToJson(true).find("\"timestamp_unix_ms\":"));
}

TEST(ManifestTest, ParamsSerializeInInsertionOrder) {
  obs::RunManifest m = obs::CurrentRunManifest();
  m.AddParam("experiment", "E1");
  m.AddParam("seed", "42");
  const std::string json = m.ToJson();
  const size_t exp = json.find("\"experiment\":\"E1\"");
  const size_t seed = json.find("\"seed\":\"42\"");
  ASSERT_NE(exp, std::string::npos) << json;
  ASSERT_NE(seed, std::string::npos) << json;
  EXPECT_LT(exp, seed);
}

TEST(ManifestTest, ParamValuesAreJsonEscaped) {
  obs::RunManifest m;
  m.AddParam("path", "a\"b\\c");
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"path\":\"a\\\"b\\\\c\""), std::string::npos)
      << json;
}

}  // namespace
}  // namespace histest
