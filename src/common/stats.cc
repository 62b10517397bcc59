#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/check.h"

namespace polyvalue {

void RunningStat::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  const double new_mean =
      mean_ + delta * static_cast<double>(other.count_) / total;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ = new_mean;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStat::Reset() { *this = RunningStat(); }

double RunningStat::variance() const {
  if (count_ == 0) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStat::sample_variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

std::string RunningStat::ToString() const {
  std::ostringstream oss;
  oss << "n=" << count_ << " mean=" << mean() << " sd=" << stddev()
      << " min=" << min() << " max=" << max();
  return oss.str();
}

void TimeWeightedStat::Observe(double now, double level) {
  if (!started_) {
    started_ = true;
    start_time_ = now;
    last_time_ = now;
    return;
  }
  POLYV_CHECK_GE(now, last_time_);
  weighted_sum_ += level * (now - last_time_);
  last_time_ = now;
}

void TimeWeightedStat::Reset(double now) {
  started_ = true;
  start_time_ = now;
  last_time_ = now;
  weighted_sum_ = 0.0;
}

double TimeWeightedStat::average() const {
  const double span = last_time_ - start_time_;
  if (span <= 0.0) {
    return 0.0;
  }
  return weighted_sum_ / span;
}

LogHistogram::LogHistogram(Options options)
    : options_(options),
      inv_log_growth_(1.0 / std::log(options.growth)),
      buckets_(options.buckets + 2) {
  POLYV_CHECK_GT(options_.lo, 0.0);
  POLYV_CHECK_GT(options_.growth, 1.0);
  POLYV_CHECK_GT(options_.buckets, 0u);
}

LogHistogram::LogHistogram(const LogHistogram& other)
    : LogHistogram(other.options_) {
  Merge(other);
}

LogHistogram& LogHistogram::operator=(const LogHistogram& other) {
  if (this == &other) {
    return *this;
  }
  options_ = other.options_;
  inv_log_growth_ = other.inv_log_growth_;
  std::vector<std::atomic<uint64_t>> fresh(options_.buckets + 2);
  buckets_.swap(fresh);
  count_.store(0, std::memory_order_relaxed);
  Merge(other);
  return *this;
}

size_t LogHistogram::IndexFor(double x) const {
  if (!(x >= options_.lo)) {  // also catches NaN: count it as underflow
    return 0;
  }
  const double raw = std::log(x / options_.lo) * inv_log_growth_;
  const size_t idx = 1 + static_cast<size_t>(raw);
  return std::min(idx, buckets_.size() - 1);
}

void LogHistogram::Add(double x) {
  buckets_[IndexFor(x)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

void LogHistogram::Merge(const LogHistogram& other) {
  POLYV_CHECK(options_.lo == other.options_.lo &&
              options_.growth == other.options_.growth &&
              buckets_.size() == other.buckets_.size());
  uint64_t merged = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    buckets_[i].fetch_add(n, std::memory_order_relaxed);
    merged += n;
  }
  count_.fetch_add(merged, std::memory_order_relaxed);
}

uint64_t LogHistogram::underflow() const {
  return buckets_.front().load(std::memory_order_relaxed);
}

uint64_t LogHistogram::overflow() const {
  return buckets_.back().load(std::memory_order_relaxed);
}

uint64_t LogHistogram::bucket(size_t i) const {
  return buckets_[i + 1].load(std::memory_order_relaxed);
}

double LogHistogram::bucket_lower(size_t i) const {
  return options_.lo * std::pow(options_.growth, static_cast<double>(i));
}

double LogHistogram::bucket_upper(size_t i) const {
  return options_.lo * std::pow(options_.growth, static_cast<double>(i + 1));
}

double LogHistogram::Percentile(double p) const {
  POLYV_CHECK_GE(p, 0.0);
  POLYV_CHECK_LE(p, 100.0);
  // Snapshot first: racing writers must not make the cumulative walk
  // overshoot the total it was computed against.
  std::vector<uint64_t> counts(buckets_.size());
  uint64_t total = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) {
    return 0.0;
  }
  const double target = p / 100.0 * static_cast<double>(total);
  double cumulative = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += static_cast<double>(counts[i]);
    if (cumulative >= target) {
      if (i == 0) {
        return options_.lo;  // underflow: everything below lo reports lo
      }
      // Overflow reports the top finite edge (never invents a value
      // beyond the histogram's range).
      return bucket_upper(std::min(i - 1, options_.buckets - 1));
    }
  }
  return bucket_upper(options_.buckets - 1);
}

std::string LogHistogram::ToString() const {
  std::ostringstream oss;
  oss << "loghist[lo=" << options_.lo << " g=" << options_.growth
      << " n=" << count() << " p50=" << Percentile(50)
      << " p99=" << Percentile(99) << "]";
  return oss.str();
}

}  // namespace polyvalue
