// Unit tests for the statistics accumulators.
#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

namespace polyvalue {
namespace {

TEST(RunningStatTest, EmptyDefaults) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStatTest, MeanVarianceMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, SampleVarianceUsesNMinusOne) {
  RunningStat s;
  s.Add(1.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  RunningStat merged_a;
  RunningStat merged_b;
  RunningStat sequential;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37;
    sequential.Add(x);
    (i % 2 == 0 ? merged_a : merged_b).Add(x);
  }
  merged_a.Merge(merged_b);
  EXPECT_EQ(merged_a.count(), sequential.count());
  EXPECT_NEAR(merged_a.mean(), sequential.mean(), 1e-12);
  EXPECT_NEAR(merged_a.variance(), sequential.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(merged_a.min(), sequential.min());
  EXPECT_DOUBLE_EQ(merged_a.max(), sequential.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a;
  a.Add(5.0);
  RunningStat empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(TimeWeightedStatTest, ConstantLevel) {
  TimeWeightedStat s;
  s.Observe(0.0, 0.0);   // establish start
  s.Observe(10.0, 3.0);  // level 3 held from t=0 to t=10
  EXPECT_DOUBLE_EQ(s.average(), 3.0);
}

TEST(TimeWeightedStatTest, StepFunction) {
  TimeWeightedStat s;
  s.Observe(0.0, 0.0);
  s.Observe(4.0, 1.0);   // level 1 for 4s
  s.Observe(6.0, 5.0);   // level 5 for 2s
  // average = (1*4 + 5*2) / 6
  EXPECT_DOUBLE_EQ(s.average(), 14.0 / 6.0);
}

TEST(TimeWeightedStatTest, ResetDiscardsHistory) {
  TimeWeightedStat s;
  s.Observe(0.0, 0.0);
  s.Observe(5.0, 100.0);
  s.Reset(5.0);
  s.Observe(10.0, 2.0);
  EXPECT_DOUBLE_EQ(s.average(), 2.0);
  EXPECT_DOUBLE_EQ(s.elapsed(), 5.0);
}

TEST(TimeWeightedStatTest, ZeroSpanIsZero) {
  TimeWeightedStat s;
  s.Observe(1.0, 7.0);
  EXPECT_DOUBLE_EQ(s.average(), 0.0);
}

TEST(LogHistogramTest, EmptyDefaults) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(LogHistogramTest, BucketEdgesAreGeometric) {
  LogHistogram::Options options;
  options.lo = 1.0;
  options.growth = 2.0;
  options.buckets = 8;
  LogHistogram h(options);
  for (size_t i = 0; i < options.buckets; ++i) {
    EXPECT_DOUBLE_EQ(h.bucket_lower(i), std::pow(2.0, double(i)));
    EXPECT_DOUBLE_EQ(h.bucket_upper(i), std::pow(2.0, double(i + 1)));
  }
}

// The core accuracy contract: a reported percentile is the upper edge
// of the bucket holding the true quantile, so it never understates and
// overstates by at most one growth factor.
TEST(LogHistogramTest, PercentileAccuracyBounds) {
  LogHistogram h;  // default shape: lo=1us, growth=1.25
  std::vector<double> values;
  // Latency-shaped samples spanning several decades, deterministic.
  for (int i = 1; i <= 2000; ++i) {
    values.push_back(1e-4 * (1.0 + 0.017 * i) * (1 + (i % 7)));
  }
  for (double v : values) {
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const size_t rank = std::min(
        values.size() - 1,
        static_cast<size_t>(std::ceil(p / 100.0 * values.size())));
    const double exact = values[rank == 0 ? 0 : rank - 1];
    const double reported = h.Percentile(p);
    EXPECT_GE(reported, exact * (1.0 - 1e-9)) << "p" << p;
    EXPECT_LE(reported, exact * h.growth() * (1.0 + 1e-9)) << "p" << p;
  }
}

TEST(LogHistogramTest, MergeMatchesSequential) {
  LogHistogram merged_a;
  LogHistogram merged_b;
  LogHistogram sequential;
  for (int i = 1; i <= 500; ++i) {
    const double x = 1e-5 * i * (1 + (i % 13));
    sequential.Add(x);
    (i % 2 == 0 ? merged_a : merged_b).Add(x);
  }
  merged_a.Merge(merged_b);
  EXPECT_EQ(merged_a.count(), sequential.count());
  for (size_t i = 0; i < merged_a.bucket_count(); ++i) {
    EXPECT_EQ(merged_a.bucket(i), sequential.bucket(i)) << "bucket " << i;
  }
  for (double p : {50.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(merged_a.Percentile(p), sequential.Percentile(p));
  }
}

TEST(LogHistogramTest, OverflowAndUnderflowBuckets) {
  LogHistogram::Options options;
  options.lo = 1e-3;
  options.growth = 2.0;
  options.buckets = 10;  // top edge = 1e-3 * 2^10 ~= 1.024
  LogHistogram h(options);
  h.Add(1e-9);   // below lo -> underflow
  h.Add(0.0);    // non-positive -> underflow
  h.Add(1e6);    // beyond the top edge -> overflow
  h.Add(0.5);    // in range
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.overflow(), 1u);
  // Underflow reports lo (the floor of resolution); overflow clamps to
  // the top finite edge rather than inventing a value.
  EXPECT_DOUBLE_EQ(h.Percentile(1), options.lo);
  EXPECT_DOUBLE_EQ(h.Percentile(100), h.bucket_upper(options.buckets - 1));
}

TEST(LogHistogramTest, CopyIsSnapshot) {
  LogHistogram h;
  h.Add(0.01);
  LogHistogram copy = h;
  h.Add(0.02);
  EXPECT_EQ(copy.count(), 1u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(LogHistogramTest, ConcurrentAddsLoseNothing) {
  LogHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.Add(1e-5 * ((t + 1) * i % 1000 + 1));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(h.count(), uint64_t(kThreads) * kPerThread);
  uint64_t total = h.underflow() + h.overflow();
  for (size_t i = 0; i < h.bucket_count(); ++i) {
    total += h.bucket(i);
  }
  EXPECT_EQ(total, h.count());
}

}  // namespace
}  // namespace polyvalue
