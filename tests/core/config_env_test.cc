// HM_* configuration entry point (core::ApplyConfigEnv) and the harness scale knob
// (bench::BenchScale): every variable round-trips into its field, unset variables leave the
// base config untouched, and malformed values abort with the variable named.

#include "src/core/config_env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "bench/bench_common.h"

namespace halfmoon::core {
namespace {

constexpr const char* kVariables[] = {
    "HM_SHARDS",     "HM_PIPELINE",         "HM_BATCH_WINDOW",     "HM_BATCH_MAX", "HM_DURABLE",
    "HM_CHECKPOINT", "HM_CHECKPOINT_SLICE", "HM_CHECKPOINT_BYTES", "HM_ADVISOR",   "HM_BENCH_SCALE",
};

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

TEST_F(ConfigEnvTest, UnsetVariablesLeaveTheBaseConfigUntouched) {
  runtime::ClusterConfig cluster;
  cluster.log_shards = 3;
  cluster.append_batch_pipeline = 2;
  cluster.append_batch_window = Microseconds(7);
  cluster.append_batch_max = 9;
  cluster.durable = true;
  cluster.checkpoint = true;
  cluster.checkpoint_slice = 11;
  cluster.checkpoint_trigger_bytes = 13;
  RuntimeConfig runtime;
  runtime.advisor = true;
  setenv("HM_SHARDS", "", 1);  // Empty counts as unset.

  runtime::ClusterConfig c = cluster;
  RuntimeConfig r = runtime;
  ApplyConfigEnv(&c, &r);
  EXPECT_EQ(c.log_shards, 3);
  EXPECT_EQ(c.append_batch_pipeline, 2);
  EXPECT_EQ(c.append_batch_window, Microseconds(7));
  EXPECT_EQ(c.append_batch_max, 9);
  EXPECT_TRUE(c.durable);
  EXPECT_TRUE(c.checkpoint);
  EXPECT_EQ(c.checkpoint_slice, 11);
  EXPECT_EQ(c.checkpoint_trigger_bytes, 13);
  EXPECT_TRUE(r.advisor);

  // And the library defaults are the plain constants, whatever the environment says.
  setenv("HM_SHARDS", "4", 1);
  setenv("HM_DURABLE", "1", 1);
  runtime::ClusterConfig defaults;
  EXPECT_EQ(defaults.log_shards, 1);
  EXPECT_EQ(defaults.append_batch_pipeline, 1);
  EXPECT_EQ(defaults.append_batch_window, 0);
  EXPECT_EQ(defaults.append_batch_max, 64);
  EXPECT_FALSE(defaults.durable);
  EXPECT_FALSE(defaults.checkpoint);
  EXPECT_EQ(defaults.checkpoint_slice, 4096);
  EXPECT_EQ(defaults.checkpoint_trigger_bytes, 64 << 20);
  EXPECT_FALSE(RuntimeConfig{}.advisor);
}

TEST_F(ConfigEnvTest, EachVariableRoundTrips) {
  setenv("HM_SHARDS", "4", 1);
  setenv("HM_PIPELINE", "8", 1);
  setenv("HM_BATCH_WINDOW", "150", 1);
  setenv("HM_BATCH_MAX", "16", 1);
  setenv("HM_DURABLE", "1", 1);
  setenv("HM_CHECKPOINT", "1", 1);
  setenv("HM_CHECKPOINT_SLICE", "32", 1);
  setenv("HM_CHECKPOINT_BYTES", "0", 1);
  setenv("HM_ADVISOR", "1", 1);
  runtime::ClusterConfig c;
  RuntimeConfig r;
  ApplyConfigEnv(&c, &r);
  EXPECT_EQ(c.log_shards, 4);
  EXPECT_EQ(c.append_batch_pipeline, 8);
  EXPECT_EQ(c.append_batch_window, Microseconds(150));
  EXPECT_EQ(c.append_batch_max, 16);
  EXPECT_TRUE(c.durable);
  EXPECT_TRUE(c.checkpoint);
  EXPECT_EQ(c.checkpoint_slice, 32);
  EXPECT_EQ(c.checkpoint_trigger_bytes, 0);
  EXPECT_TRUE(r.advisor);

  // "0" switches a flag off even when the base config had it on.
  setenv("HM_CHECKPOINT", "0", 1);
  setenv("HM_DURABLE", "0", 1);
  setenv("HM_ADVISOR", "0", 1);
  ApplyConfigEnv(&c, &r);
  EXPECT_FALSE(c.durable);
  EXPECT_FALSE(c.checkpoint);
  EXPECT_FALSE(r.advisor);
}

TEST_F(ConfigEnvTest, BenchScaleParsesPositiveNumbers) {
  EXPECT_EQ(bench::BenchScale(), 1.0);
  setenv("HM_BENCH_SCALE", "0.2", 1);
  EXPECT_EQ(bench::BenchScale(), 0.2);
  setenv("HM_BENCH_SCALE", "3", 1);
  EXPECT_EQ(bench::BenchScale(), 3.0);
}

TEST_F(ConfigEnvDeathTest, MalformedOrOutOfRangeValuesAbort) {
  const std::pair<const char*, const char*> bad[] = {
      {"HM_SHARDS", "0"},           {"HM_SHARDS", "4x"},        {"HM_SHARDS", "99999999999"},
      {"HM_PIPELINE", "O1"},        {"HM_BATCH_WINDOW", "-1"},  {"HM_BATCH_MAX", "0"},
      {"HM_DURABLE", "yes"},        {"HM_CHECKPOINT", "2"},     {"HM_CHECKPOINT_SLICE", "0"},
      {"HM_CHECKPOINT_BYTES", "-5"}, {"HM_ADVISOR", "true"},
  };
  for (const auto& [name, value] : bad) {
    setenv(name, value, 1);
    runtime::ClusterConfig c;
    RuntimeConfig r;
    EXPECT_DEATH(ApplyConfigEnv(&c, &r), std::string(name) + "=\"" + value + "\" is invalid")
        << name << "=" << value;
    unsetenv(name);
  }
}

TEST_F(ConfigEnvDeathTest, CheckpointWithoutDurableAborts) {
  setenv("HM_CHECKPOINT", "1", 1);
  runtime::ClusterConfig c;
  RuntimeConfig r;
  EXPECT_DEATH(ApplyConfigEnv(&c, &r), "HM_CHECKPOINT=\"1\" is invalid: .*HM_DURABLE=1");
  // A durable base config satisfies the requirement without HM_DURABLE.
  c.durable = true;
  ApplyConfigEnv(&c, &r);
  EXPECT_TRUE(c.checkpoint);
}

TEST_F(ConfigEnvDeathTest, BadBenchScaleAborts) {
  for (const char* value : {"abc", "0.2x", "0", "-1", "inf", "nan"}) {
    setenv("HM_BENCH_SCALE", value, 1);
    EXPECT_DEATH(bench::BenchScale(), std::string("HM_BENCH_SCALE=\"") + value + "\" is invalid")
        << value;
  }
}

}  // namespace
}  // namespace halfmoon::core
