#include "common/cli.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "benchutil/parallel.h"

namespace histest {
namespace {

ArgParser Parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParserTest, EqualsForm) {
  const ArgParser p = Parse({"--n=1024", "--eps=0.25", "--name=foo"});
  EXPECT_EQ(p.GetInt("n", 0), 1024);
  EXPECT_DOUBLE_EQ(p.GetDouble("eps", 0.0), 0.25);
  EXPECT_EQ(p.GetString("name", ""), "foo");
}

TEST(ArgParserTest, SpaceForm) {
  const ArgParser p = Parse({"--n", "64", "--flag"});
  EXPECT_EQ(p.GetInt("n", 0), 64);
  EXPECT_TRUE(p.GetBool("flag", false));
}

TEST(ArgParserTest, DefaultsWhenAbsent) {
  const ArgParser p = Parse({});
  EXPECT_EQ(p.GetInt("n", 42), 42);
  EXPECT_DOUBLE_EQ(p.GetDouble("eps", 0.5), 0.5);
  EXPECT_EQ(p.GetString("s", "dflt"), "dflt");
  EXPECT_FALSE(p.GetBool("b", false));
  EXPECT_FALSE(p.Has("n"));
}

TEST(ArgParserTest, BooleanValues) {
  EXPECT_TRUE(Parse({"--x=true"}).GetBool("x", false));
  EXPECT_TRUE(Parse({"--x=1"}).GetBool("x", false));
  EXPECT_FALSE(Parse({"--x=false"}).GetBool("x", true));
  EXPECT_FALSE(Parse({"--x=no"}).GetBool("x", true));
}

TEST(ArgParserTest, PositionalArguments) {
  const ArgParser p = Parse({"input.csv", "--n=3", "other"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.csv");
  EXPECT_EQ(p.positional()[1], "other");
}

TEST(ArgParserTest, NegativeNumbersViaEquals) {
  const ArgParser p = Parse({"--offset=-5"});
  EXPECT_EQ(p.GetInt("offset", 0), -5);
}

TEST(BenchScaleTest, DefaultsToOneWithoutEnv) {
  // The test environment does not set HISTEST_BENCH_SCALE.
  EXPECT_GT(BenchScale(), 0.0);
  EXPECT_GE(ScaledTrials(10), 1);
}

/// Scoped setenv/unsetenv so the parse tests cannot leak state into other
/// tests in this binary.
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

TEST(ParseEnvIntTest, AbsentYieldsFallback) {
  const ScopedEnv env("HISTEST_TEST_INT", nullptr);
  const auto v = ParseEnvInt("HISTEST_TEST_INT", 1, 100, 42);
  EXPECT_FALSE(v.present);
  EXPECT_TRUE(v.valid);
  EXPECT_EQ(v.value, 42);
}

TEST(ParseEnvIntTest, ParsesCleanInteger) {
  const ScopedEnv env("HISTEST_TEST_INT", "64");
  const auto v = ParseEnvInt("HISTEST_TEST_INT", 1, 100, 42);
  EXPECT_TRUE(v.present);
  EXPECT_TRUE(v.valid);
  EXPECT_EQ(v.value, 64);
  EXPECT_EQ(v.raw, "64");
}

TEST(ParseEnvIntTest, RejectsGarbageAndRange) {
  {
    const ScopedEnv env("HISTEST_TEST_INT", "4x");
    const auto v = ParseEnvInt("HISTEST_TEST_INT", 1, 100, 42);
    EXPECT_TRUE(v.present);
    EXPECT_FALSE(v.valid);
    EXPECT_EQ(v.value, 42);  // fallback retained
    EXPECT_FALSE(v.error.empty());
  }
  {
    const ScopedEnv env("HISTEST_TEST_INT", "101");
    const auto v = ParseEnvInt("HISTEST_TEST_INT", 1, 100, 42);
    EXPECT_FALSE(v.valid);
    EXPECT_EQ(v.value, 42);
  }
  {
    const ScopedEnv env("HISTEST_TEST_INT", "");
    const auto v = ParseEnvInt("HISTEST_TEST_INT", 1, 100, 42);
    EXPECT_TRUE(v.present);
    EXPECT_FALSE(v.valid);
  }
}

TEST(ParseEnvDoubleTest, ParsesAndRejects) {
  {
    const ScopedEnv env("HISTEST_TEST_DBL", "2.5");
    const auto v = ParseEnvDouble("HISTEST_TEST_DBL", 1.0);
    EXPECT_TRUE(v.present);
    EXPECT_TRUE(v.valid);
    EXPECT_DOUBLE_EQ(v.value, 2.5);
  }
  {
    const ScopedEnv env("HISTEST_TEST_DBL", "-1.0");
    const auto v = ParseEnvDouble("HISTEST_TEST_DBL", 1.0);
    EXPECT_FALSE(v.valid);  // must be strictly positive
    EXPECT_DOUBLE_EQ(v.value, 1.0);
  }
  {
    const ScopedEnv env("HISTEST_TEST_DBL", "inf");
    const auto v = ParseEnvDouble("HISTEST_TEST_DBL", 1.0);
    EXPECT_FALSE(v.valid);  // must be finite
  }
  {
    const ScopedEnv env("HISTEST_TEST_DBL", "1.5trailing");
    const auto v = ParseEnvDouble("HISTEST_TEST_DBL", 1.0);
    EXPECT_FALSE(v.valid);
  }
}

// ShouldWarnOnceForEnv backs the once-per-value stderr warnings for
// malformed env vars (e.g. HISTEST_THREADS). The registry is
// process-global and never resets, so each test uses variable names unique
// to itself.
TEST(ShouldWarnOnceForEnvTest, TrueExactlyOncePerDistinctPair) {
  EXPECT_TRUE(ShouldWarnOnceForEnv("HISTEST_TEST_WARN_A", "bogus"));
  EXPECT_FALSE(ShouldWarnOnceForEnv("HISTEST_TEST_WARN_A", "bogus"));
  EXPECT_FALSE(ShouldWarnOnceForEnv("HISTEST_TEST_WARN_A", "bogus"));

  // A different value of the same variable is a new pair; so is the same
  // value under a different variable.
  EXPECT_TRUE(ShouldWarnOnceForEnv("HISTEST_TEST_WARN_A", "worse"));
  EXPECT_TRUE(ShouldWarnOnceForEnv("HISTEST_TEST_WARN_B", "bogus"));
  EXPECT_FALSE(ShouldWarnOnceForEnv("HISTEST_TEST_WARN_A", "worse"));
  EXPECT_FALSE(ShouldWarnOnceForEnv("HISTEST_TEST_WARN_B", "bogus"));
}

TEST(ShouldWarnOnceForEnvTest, KeyIsNotAmbiguousAcrossNameValueSplit) {
  // The registry key must separate name from value: "X=" + "y=z" and
  // "X=y" + "z" would collide under naive concatenation.
  EXPECT_TRUE(ShouldWarnOnceForEnv("HISTEST_TEST_WARN_C", "d=e"));
  EXPECT_TRUE(ShouldWarnOnceForEnv("HISTEST_TEST_WARN_C=d", "e"));
}

TEST(ShouldWarnOnceForEnvTest, ExactlyOneWinnerUnderConcurrency) {
  // Many pool workers race the first sighting of one (name, value) pair;
  // the annotated mutex must admit exactly one warner.
  std::atomic<int> winners{0};
  ParallelFor(int64_t{64}, 8, [&](int64_t) {
    if (ShouldWarnOnceForEnv("HISTEST_TEST_WARN_RACE", "junk")) {
      winners.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(winners.load(), 1);
}

}  // namespace
}  // namespace histest
