// Regenerates Figure 1 of the paper: the update-protocol state diagram.
//
// Figure 1 is a three-state participant machine (idle, compute, wait)
// with six transitions. We regenerate it by *driving* the real engine
// through every edge on the deterministic cluster, recording which edges
// were exercised, and printing the machine as a transition table. A
// latency section reports the virtual-time cost of the commit path and of
// the in-doubt path (wait-timeout -> polyvalue install).
//
// With POLYV_METRICS_JSON=<path> the commit-path cluster's metrics
// registry (per-site and cluster-wide counters) is written there as JSON.
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "src/obs/audit.h"
#include "src/obs/metrics.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

EngineConfig FastConfig() {
  EngineConfig config;
  config.prepare_timeout = 0.25;
  config.ready_timeout = 0.25;
  config.wait_timeout = 0.05;
  config.inquiry_interval = 0.2;
  return config;
}

SimCluster::Options Options() {
  SimCluster::Options options;
  options.site_count = 3;
  options.engine = FastConfig();
  options.min_delay = 0.01;
  options.max_delay = 0.01;
  return options;
}

TxnSpec WriteTxn(const ItemKey& key, SiteId site, int64_t delta) {
  TxnSpec spec;
  spec.ReadWrite(key, site);
  spec.Logic([key, delta](const TxnReads& reads) {
    TxnEffect e;
    e.writes[key] = Value::Int(reads.IntAt(key) + delta);
    return e;
  });
  return spec;
}

struct Edge {
  const char* from;
  const char* trigger;
  const char* to;
  const char* action;
  bool exercised;
};

// Edge 1+2+3: idle -> compute (PREPARE), compute -> wait (WRITE_REQ:
// results computed promptly, READY sent), wait -> idle (COMPLETE:
// install). Measures the commit path latency and exports the cluster's
// metrics into `registry`.
double ExerciseCommitPath(bool* ok, VectorTraceSink* trace,
                          MetricsRegistry* registry) {
  SimCluster::Options options = Options();
  options.trace = trace;
  SimCluster cluster(options);
  cluster.Load(1, "x", Value::Int(0));
  const double start = cluster.sim().now();
  const auto result = cluster.SubmitAndRun(0, WriteTxn("x", SiteId(2), 1));
  const double latency = cluster.sim().now() - start;
  cluster.RunFor(1.0);
  *ok = result.has_value() && result->committed() &&
        cluster.site(1).Peek("x").value().certain_value() == Value::Int(1);
  cluster.ExportMetrics(registry);
  return latency;
}

// Edge 4: wait -> idle via ABORT (discard results).
bool ExerciseAbortEdge(VectorTraceSink* trace) {
  SimCluster::Options options = Options();
  options.trace = trace;
  SimCluster cluster(options);
  cluster.Load(1, "x", Value::Int(0));
  TxnSpec spec;
  spec.ReadWrite("x", SiteId(2));
  // Also involve a second site that refuses (missing item) so the
  // coordinator aborts after site 1 computed.
  spec.Read("ghost", SiteId(3));
  spec.Logic([](const TxnReads&) { return TxnEffect{}; });
  const auto result = cluster.SubmitAndRun(0, std::move(spec));
  cluster.RunFor(1.0);
  return result.has_value() && !result->committed() &&
         cluster.site(1).Peek("x").value().certain_value() ==
             Value::Int(0) &&
         cluster.site(1).store().locked_count() == 0;
}

// Edge 5: compute -> idle (failure before results / abort in compute).
bool ExerciseComputeDiscardEdge(VectorTraceSink* trace) {
  SimCluster::Options options = Options();
  options.trace = trace;
  SimCluster cluster(options);
  cluster.Load(1, "x", Value::Int(0));
  TxnSpec spec = WriteTxn("x", SiteId(2), 1);
  cluster.Submit(0, std::move(spec), [](const TxnResult&) {});
  // Crash the coordinator immediately after PREPARE goes out: site 1
  // enters compute, never gets WRITE_REQ, and must discard + unlock.
  cluster.sim().At(0.015, [&cluster] { cluster.CrashSite(0); });
  cluster.RunFor(2.0);  // compute-phase timeout = prepare+ready = 0.5 s
  return cluster.site(1).store().locked_count() == 0 &&
         cluster.site(1).Peek("x").value().is_certain();
}

// Edge 6: wait -> idle via the wait timeout — the polyvalue edge.
double ExercisePolyvalueEdge(bool* ok, VectorTraceSink* trace) {
  SimCluster::Options options = Options();
  options.trace = trace;
  SimCluster cluster(options);
  cluster.Load(1, "x", Value::Int(0));
  cluster.Submit(0, WriteTxn("x", SiteId(2), 1), [](const TxnResult&) {});
  cluster.sim().At(0.035, [&cluster] { cluster.CrashSite(0); });
  const double start = cluster.sim().now();
  // Run until the item becomes uncertain.
  double installed_at = -1;
  while (cluster.sim().now() < 5.0) {
    if (!cluster.sim().Step()) {
      break;
    }
    if (installed_at < 0 &&
        !cluster.site(1).Peek("x").value().is_certain()) {
      installed_at = cluster.sim().now();
    }
  }
  *ok = installed_at > 0 &&
        cluster.site(1).store().locked_count() == 0;
  return installed_at - start;
}

// Runs the auditor over one edge's trace; prints and fails on any
// protocol-invariant violation.
bool AuditEdge(const char* name, const VectorTraceSink& trace,
               AuditOptions options = {}) {
  const Status status = TraceAuditor::Check(trace.Snapshot(), options);
  if (status.ok()) {
    std::printf("  %-28s %4zu events, invariant-clean\n", name,
                trace.size());
    return true;
  }
  std::printf("  %-28s AUDIT FAILED:\n%s\n", name, status.message().c_str());
  return false;
}

}  // namespace
}  // namespace polyvalue

int main() {
  using namespace polyvalue;

  VectorTraceSink commit_trace, abort_trace, discard_trace, poly_trace;
  bool commit_ok = false;
  MetricsRegistry registry;
  const double commit_latency =
      ExerciseCommitPath(&commit_ok, &commit_trace, &registry);
  const bool abort_ok = ExerciseAbortEdge(&abort_trace);
  const bool discard_ok = ExerciseComputeDiscardEdge(&discard_trace);
  bool poly_ok = false;
  const double poly_latency = ExercisePolyvalueEdge(&poly_ok, &poly_trace);

  Edge edges[] = {
      {"idle", "PREPARE received", "compute",
       "lock items, compute results", commit_ok},
      {"compute", "results computed promptly (WRITE_REQ)", "wait",
       "send READY to coordinator", commit_ok},
      {"compute", "failure prevents prompt computation / ABORT", "idle",
       "discard computation", discard_ok && abort_ok},
      {"wait", "COMPLETE received", "idle", "install results", commit_ok},
      {"wait", "ABORT received", "idle", "discard results", abort_ok},
      {"wait", "neither received promptly (timeout)", "idle",
       "install POLYVALUES for updated items", poly_ok},
  };

  std::printf("Figure 1: The Update Protocol States — regenerated from "
              "the running engine\n\n");
  std::printf("%-9s %-45s %-9s %s\n", "state", "trigger", "next", "action");
  std::printf("%.*s\n", 100,
              "-----------------------------------------------------------"
              "---------------------------------------------");
  bool all = true;
  for (const Edge& edge : edges) {
    std::printf("%-9s %-45s %-9s %s %s\n", edge.from, edge.trigger, edge.to,
                edge.action, edge.exercised ? "[exercised OK]" : "[FAILED]");
    all &= edge.exercised;
  }

  std::printf("\nPath latencies (virtual time, 10 ms links, wait timeout "
              "50 ms):\n");
  std::printf("  commit path  (idle->compute->wait->idle): %5.0f ms\n",
              commit_latency * 1e3);
  std::printf("  in-doubt path (… wait --timeout--> idle + polyvalue "
              "install): %5.0f ms\n",
              poly_latency * 1e3);
  // Every exercised trace must satisfy the protocol invariants. The
  // polyvalue edge deliberately leaves uncertainty outstanding (its
  // coordinator never recovers), so quiescence is not asserted there.
  std::printf("\nTrace audit (protocol invariants A1-A8 over each edge's "
              "recorded trace):\n");
  bool audits_ok = true;
  audits_ok &= AuditEdge("commit path", commit_trace);
  audits_ok &= AuditEdge("abort edge", abort_trace);
  audits_ok &= AuditEdge("compute-discard edge", discard_trace);
  AuditOptions in_doubt;
  in_doubt.expect_quiescent = false;
  audits_ok &= AuditEdge("polyvalue edge (in doubt)", poly_trace, in_doubt);
  all &= audits_ok;

  std::printf("\n%s\n", all ? "All six Figure-1 edges exercised by the real "
                              "protocol engine."
                            : "SOME EDGES FAILED — see above.");
  if (const char* path = std::getenv("POLYV_METRICS_JSON")) {
    const Status status = registry.WriteJsonFile(path);
    if (!status.ok()) {
      std::fprintf(stderr, "failed to write metrics JSON to %s: %s\n", path,
                   status.message().c_str());
      return 1;
    }
    std::printf("metrics JSON written to %s\n", path);
  }
  return all ? 0 : 1;
}
