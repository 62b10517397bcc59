// Named metrics registry with JSON export.
//
// The engine's EngineMetrics struct is a fixed set of totals; the
// registry is the generic layer above it: counters, gauges and running
// stats keyed by name, mergeable across sites for cluster-wide
// aggregation, and serialisable to machine-readable JSON that benches
// dump and CI archives. Reuses RunningStat from src/common/stats.h as
// the underlying accumulator.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/stats.h"
#include "src/common/status.h"

namespace polyvalue {

class MetricsRegistry {
 public:
  // Monotonic counters.
  void Counter(const std::string& name, uint64_t delta = 1);
  void SetCounter(const std::string& name, uint64_t value);
  uint64_t counter(const std::string& name) const;

  // Point-in-time values (last write wins).
  void Gauge(const std::string& name, double value);
  double gauge(const std::string& name) const;

  // Distribution accumulator. The returned pointer stays valid for the
  // registry's lifetime.
  RunningStat* Stat(const std::string& name);

  bool Has(const std::string& name) const;
  size_t size() const;

  // Adds `other` into this registry: counters add, gauges overwrite,
  // stats merge.
  void Merge(const MetricsRegistry& other);

  // Serialises everything as one JSON object:
  //   {"counters": {...}, "gauges": {...},
  //    "stats": {name: {count, mean, stddev, min, max, sum}}}
  // Keys are escaped; output is deterministic (maps iterate sorted).
  std::string ToJson() const;

  // Writes ToJson() to `path` (overwriting).
  Status WriteJsonFile(const std::string& path) const;

  // JSON string escaping (exposed for tests).
  static std::string EscapeJson(const std::string& s);

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, RunningStat> stats_;
};

}  // namespace polyvalue

#endif  // SRC_OBS_METRICS_H_
