// Statistics accumulators used by the simulators and benches.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace polyvalue {

// Welford single-pass mean/variance with min/max tracking.
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);
  void Reset();

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;      // population variance
  double sample_variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

  std::string ToString() const;

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// A time-weighted average of a step function: the §4 simulation needs the
// average *number* of polyvalues over time, which means integrating the
// count against elapsed time, not averaging per-event samples.
class TimeWeightedStat {
 public:
  // Records that the tracked quantity had value `level` from the previous
  // observation time up to `now`.
  void Observe(double now, double level);
  void Reset(double now);

  double average() const;
  double elapsed() const { return last_time_ - start_time_; }

 private:
  bool started_ = false;
  double start_time_ = 0.0;
  double last_time_ = 0.0;
  double weighted_sum_ = 0.0;
};

// Log-bucketed histogram for latency distributions: bucket i spans
// [lo * growth^i, lo * growth^(i+1)), so relative resolution is constant
// across six decades.
//
// Recording is lock-free (relaxed atomic increments) so concurrent
// request-completion paths — the serving front door's latency recorder —
// never serialize on a stats mutex. Reads (Percentile, Merge, copies)
// take a weakly consistent snapshot: each bucket load is atomic, but a
// reader racing writers may see counts from slightly different moments.
// That is the standard contract for monitoring histograms; exact counts
// only matter after the workload quiesces, where it is exact.
//
// Percentile(p) returns the UPPER edge of the bucket holding the p-th
// sample, so a reported quantile never under-states the latency and is
// within one growth factor of the true value (stats_test pins the
// bound). Underflow reports lo; overflow reports the top finite edge.
class LogHistogram {
 public:
  struct Options {
    double lo = 1e-6;      // smallest resolvable value (1us)
    double growth = 1.25;  // per-bucket geometric growth
    size_t buckets = 96;   // 1.25^96 * 1us ~= 2000s of range
  };

  LogHistogram() : LogHistogram(Options{}) {}
  explicit LogHistogram(Options options);

  // Deep copies take a weakly consistent snapshot of the counts.
  LogHistogram(const LogHistogram& other);
  LogHistogram& operator=(const LogHistogram& other);

  // Thread-safe, lock-free.
  void Add(double x);

  // Adds `other`'s counts into this histogram; shapes must match.
  void Merge(const LogHistogram& other);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double Percentile(double p) const;  // p in [0, 100]
  std::string ToString() const;

  // Shape and bucket introspection.
  double lo() const { return options_.lo; }
  double growth() const { return options_.growth; }
  size_t bucket_count() const { return options_.buckets; }
  uint64_t underflow() const;
  uint64_t overflow() const;
  uint64_t bucket(size_t i) const;
  double bucket_lower(size_t i) const;
  double bucket_upper(size_t i) const;

 private:
  size_t IndexFor(double x) const;  // into buckets_ (0 = underflow)

  Options options_;
  double inv_log_growth_ = 0.0;
  // [underflow, b0..bn-1, overflow]
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
};

}  // namespace polyvalue

#endif  // SRC_COMMON_STATS_H_
