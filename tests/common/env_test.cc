// The HM_* harness knobs and their strict parsers (src/common/env.h): HM_BENCH_SCALE through
// bench::BenchScale and the EnvBool parser behind HM_FAULTCHECK_FULL. Unset variables fall
// back to the default, and malformed values abort with the variable named.

#include "src/common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "bench/bench_common.h"

namespace halfmoon {
namespace {

constexpr const char* kVariables[] = {"HM_BENCH_SCALE", "HM_FAULTCHECK_FULL"};

// Every test starts and ends with all knobs unset.
class ConfigEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { UnsetAll(); }
  void TearDown() override { UnsetAll(); }
  static void UnsetAll() {
    for (const char* name : kVariables) unsetenv(name);
  }
};
using ConfigEnvDeathTest = ConfigEnvTest;

TEST_F(ConfigEnvTest, BenchScaleParsesPositiveNumbers) {
  EXPECT_EQ(bench::BenchScale(), 1.0);
  setenv("HM_BENCH_SCALE", "0.2", 1);
  EXPECT_EQ(bench::BenchScale(), 0.2);
  setenv("HM_BENCH_SCALE", "3", 1);
  EXPECT_EQ(bench::BenchScale(), 3.0);
}

TEST_F(ConfigEnvDeathTest, MalformedOrOutOfRangeValuesAbort) {
  // Unset or empty falls back; exactly "0" and "1" parse; anything else aborts.
  EXPECT_FALSE(EnvBool("HM_FAULTCHECK_FULL", false));
  setenv("HM_FAULTCHECK_FULL", "", 1);
  EXPECT_TRUE(EnvBool("HM_FAULTCHECK_FULL", true));
  setenv("HM_FAULTCHECK_FULL", "1", 1);
  EXPECT_TRUE(EnvBool("HM_FAULTCHECK_FULL", false));
  setenv("HM_FAULTCHECK_FULL", "0", 1);
  EXPECT_FALSE(EnvBool("HM_FAULTCHECK_FULL", true));
  for (const char* value : {"yes", "true", "2", "01", "1 "}) {
    setenv("HM_FAULTCHECK_FULL", value, 1);
    EXPECT_DEATH(EnvBool("HM_FAULTCHECK_FULL", false),
                 std::string("HM_FAULTCHECK_FULL=\"") + value + "\" is invalid")
        << value;
  }
}

TEST_F(ConfigEnvDeathTest, BadBenchScaleAborts) {
  for (const char* value : {"abc", "0.2x", "0", "-1", "inf", "nan"}) {
    setenv("HM_BENCH_SCALE", value, 1);
    EXPECT_DEATH(bench::BenchScale(), std::string("HM_BENCH_SCALE=\"") + value + "\" is invalid")
        << value;
  }
}

}  // namespace
}  // namespace halfmoon
