#include "src/metrics/latency_recorder.h"

#include <gtest/gtest.h>

#include "src/common/time.h"

namespace halfmoon::metrics {
namespace {

TEST(LatencyRecorderTest, EmptyRecorderReturnsZero) {
  LatencyRecorder rec;
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.Median(), 0);
  EXPECT_EQ(rec.P99(), 0);
}

TEST(LatencyRecorderTest, SingleSampleIsEveryPercentile) {
  LatencyRecorder rec;
  rec.Record(Milliseconds(5));
  EXPECT_EQ(rec.Percentile(0), Milliseconds(5));
  EXPECT_EQ(rec.Median(), Milliseconds(5));
  EXPECT_EQ(rec.Percentile(100), Milliseconds(5));
}

TEST(LatencyRecorderTest, MedianOfKnownSequence) {
  LatencyRecorder rec;
  for (int i = 1; i <= 101; ++i) rec.Record(Milliseconds(i));
  EXPECT_EQ(rec.Median(), Milliseconds(51));
}

TEST(LatencyRecorderTest, P99OfKnownSequence) {
  LatencyRecorder rec;
  for (int i = 1; i <= 101; ++i) rec.Record(Milliseconds(i));
  EXPECT_EQ(rec.P99(), Milliseconds(100));
}

TEST(LatencyRecorderTest, PercentileIsOrderInsensitive) {
  LatencyRecorder a, b;
  for (int i = 1; i <= 100; ++i) a.Record(Milliseconds(i));
  for (int i = 100; i >= 1; --i) b.Record(Milliseconds(i));
  EXPECT_EQ(a.Median(), b.Median());
  EXPECT_EQ(a.P99(), b.P99());
}

TEST(LatencyRecorderTest, CeilRankNeverRoundsTailDown) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.Record(Milliseconds(i));
  EXPECT_EQ(rec.Percentile(0), Milliseconds(1));
  EXPECT_EQ(rec.Median(), Milliseconds(51));  // rank 49.5 → index 50.
  // rank 98.01 → index 99, the largest sample. llround rounded this down to 99ms.
  EXPECT_EQ(rec.P99(), Milliseconds(100));
  EXPECT_EQ(rec.Percentile(100), Milliseconds(100));
}

TEST(LatencyRecorderTest, SmallSamplePercentiles) {
  LatencyRecorder rec;
  for (int v : {10, 20, 30, 40}) rec.Record(Milliseconds(v));
  EXPECT_EQ(rec.Percentile(0), Milliseconds(10));
  EXPECT_EQ(rec.Median(), Milliseconds(30));  // rank 1.5 → index 2.
  EXPECT_EQ(rec.P99(), Milliseconds(40));     // rank 2.97 → index 3.
  EXPECT_EQ(rec.Percentile(100), Milliseconds(40));
}

TEST(LatencyRecorderTest, CachedSortStaysCorrectAcrossRecords) {
  // Percentile caches the sorted view; every Record must invalidate it.
  LatencyRecorder rec;
  rec.Record(Milliseconds(50));
  EXPECT_EQ(rec.Median(), Milliseconds(50));
  rec.Record(Milliseconds(10));
  rec.Record(Milliseconds(90));
  EXPECT_EQ(rec.Median(), Milliseconds(50));
  EXPECT_EQ(rec.Percentile(100), Milliseconds(90));
  rec.Record(Milliseconds(5));
  EXPECT_EQ(rec.Percentile(0), Milliseconds(5));
}

TEST(LatencyRecorderTest, MeanMs) {
  LatencyRecorder rec;
  rec.Record(Milliseconds(2));
  rec.Record(Milliseconds(4));
  EXPECT_DOUBLE_EQ(rec.MeanMs(), 3.0);
}

TEST(LatencyRecorderTest, ClearResets) {
  LatencyRecorder rec;
  rec.Record(Milliseconds(1));
  rec.Clear();
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.count(), 0u);
}

TEST(LatencyRecorderTest, ClearThenRefillInvalidatesCache) {
  // Structural invalidation must survive Clear: after emptying both vectors, a refill to any
  // length (including the ORIGINAL length) rebuilds the sorted view from the new samples.
  LatencyRecorder rec;
  for (int v : {30, 10, 20}) rec.Record(Milliseconds(v));
  EXPECT_EQ(rec.Median(), Milliseconds(20));  // Builds the cache at length 3.
  rec.Clear();
  for (int v : {90, 70, 80}) rec.Record(Milliseconds(v));  // Length 3 again.
  EXPECT_EQ(rec.Median(), Milliseconds(80));
  EXPECT_EQ(rec.Percentile(0), Milliseconds(70));
}

TEST(LatencyRecorderTest, MillisecondHelpers) {
  LatencyRecorder rec;
  rec.Record(Milliseconds(10));
  EXPECT_DOUBLE_EQ(rec.MedianMs(), 10.0);
  EXPECT_DOUBLE_EQ(rec.P99Ms(), 10.0);
}

}  // namespace
}  // namespace halfmoon::metrics
