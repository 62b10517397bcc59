// Engine throughput: how many transactions per second of real CPU time
// the stack sustains on the deterministic runtime (protocol cost alone,
// no network), with and without a trace sink. Not a paper figure — a
// regression baseline for the implementation itself. Wall-clock numbers
// for the threaded and TCP runtimes come from perfbench/.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

TxnSpec Bump(const ItemKey& key, SiteId site) {
  TxnSpec spec;
  spec.ReadWrite(key, site);
  spec.Logic([key](const TxnReads& reads) {
    TxnEffect e;
    e.writes[key] = Value::Int(reads.IntAt(key) + 1);
    return e;
  });
  return spec;
}

// `trace` exercises the instrumented path (null = the zero-cost default);
// `registry` receives the cluster's end-of-run metrics when non-null.
double SimThroughput(size_t sites, int txns, TraceSink* trace = nullptr,
                     MetricsRegistry* registry = nullptr) {
  SimCluster::Options options;
  options.site_count = sites;
  options.min_delay = 0.0005;
  options.max_delay = 0.0005;
  options.trace = trace;
  SimCluster cluster(options);
  for (size_t s = 0; s < sites; ++s) {
    cluster.Load(s, "k" + std::to_string(s), Value::Int(0));
  }
  const auto start = std::chrono::steady_clock::now();
  int committed = 0;
  for (int i = 0; i < txns; ++i) {
    const size_t target = i % sites;
    const auto result = cluster.SubmitAndRun(
        (target + 1) % sites,
        Bump("k" + std::to_string(target), cluster.site_id(target)));
    if (result.has_value() && result->committed()) {
      ++committed;
    }
    cluster.RunFor(0.01);
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (registry != nullptr) {
    cluster.ExportMetrics(registry);
  }
  return committed / elapsed;
}

}  // namespace
}  // namespace polyvalue

int main() {
  using namespace polyvalue;
  std::printf("Engine throughput (committed txns per CPU-second)\n\n");
  std::printf("%-34s %12s\n", "configuration", "txns/s");
  std::printf("%.*s\n", 48, "------------------------------------------------");
  MetricsRegistry registry;
  const double sim2 = SimThroughput(2, 2000, nullptr, &registry);
  const double sim4 = SimThroughput(4, 2000);
  std::printf("%-34s %12.0f\n", "sim runtime, 2 sites, sequential", sim2);
  std::printf("%-34s %12.0f\n", "sim runtime, 4 sites, sequential", sim4);
  // Same workload with a sink attached: the gap between this row and the
  // untraced one above is the full cost of tracing; the untraced row
  // itself only pays a null-pointer test per would-be event.
  CountingTraceSink counting;
  const double sim2_traced = SimThroughput(2, 2000, &counting);
  std::printf("%-34s %12.0f\n", "sim runtime, 2 sites, traced sink",
              sim2_traced);
  std::printf("\ntracing: %llu events through the sink; traced/untraced "
              "throughput ratio %.2f\n",
              static_cast<unsigned long long>(counting.count()),
              sim2_traced / sim2);

  registry.Gauge("bench.sim_2site_txns_per_sec", sim2);
  registry.Gauge("bench.sim_4site_txns_per_sec", sim4);
  registry.Gauge("bench.sim_2site_traced_txns_per_sec", sim2_traced);
  registry.SetCounter("bench.trace_events_emitted", counting.count());
  if (const char* path = std::getenv("POLYV_METRICS_JSON")) {
    const Status status = registry.WriteJsonFile(path);
    if (!status.ok()) {
      std::fprintf(stderr, "failed to write metrics JSON to %s: %s\n", path,
                   status.message().c_str());
      return 1;
    }
    std::printf("metrics JSON written to %s\n", path);
  }
  return 0;
}
