// Cluster-scale chaos soak: the consolidated end-to-end regression gate.
//
// Runs a seed x workload x chaos grid through the full stack — workload
// generators (src/workload) -> serving front door (src/svc) -> commit
// engine (src/txn) — entirely on the deterministic simulator:
//
//   workload cells (key distribution x arrival curve x shape mix):
//     read_heavy      zipfian keys,  Poisson arrivals
//     write_heavy     uniform keys,  constant-rate arrivals
//     increment_heavy hot-set keys,  herd arrivals (retry-storm shape)
//     multi_site      zipfian keys,  diurnal arrivals
//   chaos scenarios:
//     steady          no injected failures
//     coordinator_flap  site 0 crashes and recovers twice mid-load
//     rolling_outage  each site takes a staggered outage in turn
//     lossy_net       3% of messages silently dropped during load
//   replicated chaos scenarios (read_heavy and multi_site mixes only,
//   run over a 2-region x 2-site topology with k=2 placement so every
//   logical item has one copy per region):
//     region_loss      region r1 dark from 30% of the load window until
//                      the end-of-load heal
//     split_brain      one-way cut r0 -> r1 mid-load (r1 hears r0, the
//                      replies vanish)
//     rolling_recovery region r0 lost, then healed site-by-site while
//                      load still flows
//
// Each cell multiplexes a MILLION virtual clients over the front door
// and soaks for minutes of virtual time; the whole grid covers hours of
// simulated operation per seed. After every run the full correctness
// battery fires: TraceAuditor invariants A1-A13 over the protocol trace
// (replicated cells exercise A12 copy convergence and A13 read
// integrity), lockdep must stay silent, the exactly-once arrival
// accounting must balance, the conservation audit must read zero drift,
// and no item may stay uncertain after healing. Any violation fails the
// bench.
//
// Results go to stdout as a table and to BENCH_cluster.json (override
// with POLYV_CLUSTER_JSON). The JSON is a pure function of the pinned
// seeds — two runs produce byte-identical files, which CI checks — and
// carries per-cell goodput/latency thresholds; a regression beyond
// them makes the bench (and CI) fail.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/common/lockdep.h"
#include "src/obs/audit.h"
#include "src/obs/trace.h"
#include "src/replica/wan.h"
#include "src/workload/driver.h"

namespace polyvalue {
namespace {

constexpr size_t kSites = 4;
constexpr uint64_t kKeys = 512;
constexpr uint64_t kVirtualClients = 1u << 20;  // 1,048,576
constexpr double kRate = 60.0;        // arrivals per virtual second
constexpr double kDuration = 450.0;   // offered-load seconds per cell
constexpr double kSettle = 30.0;      // drain window per cell
constexpr double kDeadline = 0.8;     // per-request deadline (seconds)
constexpr double kRateLimit = 80.0;   // front-door token bucket
constexpr size_t kMaxInflight = 64;
constexpr uint64_t kSeeds[] = {101, 202};
// Replicated chaos cells: 2 regions x 2 sites, every item replicated
// across both regions.
constexpr size_t kRegions = 2;
constexpr size_t kReplicationFactor = 2;

struct WorkloadCell {
  const char* name;
  KeyDistKind key_dist;
  ArrivalCurveKind arrival;
  MixParams (*mix)();
};

const WorkloadCell kWorkloads[] = {
    {"read_heavy", KeyDistKind::kZipfian, ArrivalCurveKind::kPoisson,
     &ReadHeavyMix},
    {"write_heavy", KeyDistKind::kUniform, ArrivalCurveKind::kConstant,
     &WriteHeavyMix},
    {"increment_heavy", KeyDistKind::kHotSet, ArrivalCurveKind::kHerd,
     &IncrementHeavyMix},
    {"multi_site", KeyDistKind::kZipfian, ArrivalCurveKind::kDiurnal,
     &MultiSiteMix},
};

enum class Chaos {
  kSteady,
  kCoordinatorFlap,
  kRollingOutage,
  kLossyNet,
  kRegionLoss,
  kSplitBrain,
  kRollingRecovery,
};

struct ChaosCell {
  const char* name;
  Chaos kind;
  // Replicated cells run the workload over the 2-region k=2 replica
  // catalog (and only on the read_heavy / multi_site mixes — the two
  // that bracket the read- and write-fan-out extremes).
  bool replicated;
};

const ChaosCell kChaos[] = {
    {"steady", Chaos::kSteady, false},
    {"coordinator_flap", Chaos::kCoordinatorFlap, false},
    {"rolling_outage", Chaos::kRollingOutage, false},
    {"lossy_net", Chaos::kLossyNet, false},
    {"region_loss", Chaos::kRegionLoss, true},
    {"split_brain", Chaos::kSplitBrain, true},
    {"rolling_recovery", Chaos::kRollingRecovery, true},
};

// The grid's minimum shape: enough seeds, mixes and failure kinds that
// one lucky schedule cannot carry the verdict.
static_assert(std::size(kSeeds) >= 2, "at least 2 pinned seeds");
static_assert(kVirtualClients >= 1'000'000, "at least 1M virtual clients");
static_assert(std::size(kWorkloads) >= 4, "at least 4 workload mixes");
static_assert(std::size(kChaos) >= 3, "at least 3 chaos kinds");

bool RunsReplicatedChaos(const WorkloadCell& workload) {
  const std::string name = workload.name;
  return name == "read_heavy" || name == "multi_site";
}

// Per-cell regression thresholds, recorded from the pinned-seed run at
// the time the bench landed (goodput floors ~20% below measured, p99
// ceilings ~50% above). The simulator is deterministic, so drifting
// outside these bounds means the CODE changed behaviour, not the
// machine.
struct Threshold {
  double min_goodput;  // commits per virtual second (mean over seeds)
  double max_p99_ms;   // worst seed
};

Threshold ThresholdFor(const std::string& workload,
                       const std::string& chaos) {
  // Steady-state commits run close to the offered rate; chaos cells
  // give back what their outages cost. Values from the seed {101,202}
  // baseline (see docs/PERFORMANCE.md, "Cluster soak methodology").
  static const struct {
    const char* workload;
    const char* chaos;
    Threshold t;
  } kTable[] = {
      {"read_heavy", "steady", {46.0, 110.0}},
      {"read_heavy", "coordinator_flap", {43.0, 400.0}},
      {"read_heavy", "rolling_outage", {40.0, 790.0}},
      {"read_heavy", "lossy_net", {34.0, 510.0}},
      {"write_heavy", "steady", {48.0, 70.0}},
      {"write_heavy", "coordinator_flap", {46.0, 400.0}},
      {"write_heavy", "rolling_outage", {43.0, 790.0}},
      {"write_heavy", "lossy_net", {41.0, 980.0}},
      {"increment_heavy", "steady", {24.5, 90.0}},
      {"increment_heavy", "coordinator_flap", {24.0, 400.0}},
      {"increment_heavy", "rolling_outage", {23.0, 790.0}},
      {"increment_heavy", "lossy_net", {23.0, 630.0}},
      {"multi_site", "steady", {37.0, 110.0}},
      {"multi_site", "coordinator_flap", {35.0, 400.0}},
      {"multi_site", "rolling_outage", {31.0, 400.0}},
      {"multi_site", "lossy_net", {24.0, 510.0}},
      // Replicated geo-chaos cells (2 regions, k=2): goodput gives back
      // what the region outage costs — every write fans to both
      // regions, so a dark region stalls the write shapes for the
      // outage window.
      {"read_heavy", "region_loss", {23.0, 800.0}},
      {"read_heavy", "split_brain", {35.0, 800.0}},
      {"read_heavy", "rolling_recovery", {33.0, 800.0}},
      {"multi_site", "region_loss", {12.0, 800.0}},
      {"multi_site", "split_brain", {23.0, 800.0}},
      {"multi_site", "rolling_recovery", {22.0, 800.0}},
  };
  for (const auto& row : kTable) {
    if (workload == row.workload && chaos == row.chaos) {
      return row.t;
    }
  }
  return {0.0, 1e9};
}

void InstallChaos(Chaos kind, ClusterWorkload* wl) {
  SimCluster& cluster = wl->cluster();
  Simulator& sim = cluster.sim();
  switch (kind) {
    case Chaos::kSteady:
      break;
    case Chaos::kCoordinatorFlap:
      // Two crash/recover cycles on site 0 while load is flowing.
      for (double at : {0.25 * kDuration, 0.60 * kDuration}) {
        sim.At(at, [&cluster] { cluster.CrashSite(0); });
        sim.At(at + 20.0, [&cluster] { cluster.RecoverSite(0); });
      }
      break;
    case Chaos::kRollingOutage:
      // Staggered single-site outages: each site down for 25 seconds,
      // windows disjoint, covering most of the load phase.
      for (size_t s = 0; s < kSites; ++s) {
        const double down = kDuration * (0.15 + 0.18 * s);
        sim.At(down, [&cluster, s] { cluster.CrashSite(s); });
        sim.At(down + 25.0, [&cluster, s] { cluster.RecoverSite(s); });
      }
      break;
    case Chaos::kLossyNet:
      // Silent message loss for the whole load phase (the driver heals
      // the fault plane before the settle window).
      cluster.faults().SetDropProbability(0.03);
      break;
    case Chaos::kRegionLoss:
      // Region r1 — half of every replica set — dark from 30% of the
      // load window until the driver's end-of-load heal.
      ScheduleRegionLoss(&cluster, *wl->topology(), 1, 0.30 * kDuration);
      break;
    case Chaos::kSplitBrain:
      // One-way cut r0 -> r1 mid-load: region 1 keeps hearing region 0
      // but its replies vanish, the asymmetric half-partition a
      // symmetric link cut cannot model.
      ScheduleOneWayPartition(&cluster, *wl->topology(), 0, 1,
                              0.25 * kDuration, 0.60 * kDuration);
      break;
    case Chaos::kRollingRecovery:
      // Region r0 lost, then healed one site every 20 s while load is
      // still flowing.
      ScheduleRegionLoss(&cluster, *wl->topology(), 0, 0.20 * kDuration);
      ScheduleRollingRecovery(&cluster, *wl->topology(), 0,
                              0.55 * kDuration, 20.0);
      break;
  }
}

struct RunOutcome {
  ClusterWorkloadReport report;
  bool audit_clean = false;
  std::string audit_error;
  int lockdep_reports = 0;
};

RunOutcome RunCell(const WorkloadCell& workload, const ChaosCell& chaos,
                   uint64_t seed) {
  VectorTraceSink trace;
  ClusterWorkloadParams params;
  params.sites = kSites;
  params.keys = kKeys;
  params.virtual_clients = kVirtualClients;
  params.key_dist.kind = workload.key_dist;
  params.arrival.kind = workload.arrival;
  params.arrival.rate = kRate;
  params.mix = workload.mix();
  params.duration = kDuration;
  params.settle_time = kSettle;
  params.deadline = kDeadline;
  params.svc.admission.rate_limit = kRateLimit;
  params.svc.admission.max_inflight = kMaxInflight;
  params.seed = seed;
  params.trace = &trace;
  if (chaos.replicated) {
    params.replication_factor = kReplicationFactor;
    params.regions = kRegions;
  }

  const int lockdep_before = lockdep::ReportCount();
  ClusterWorkload wl(params);
  InstallChaos(chaos.kind, &wl);

  RunOutcome out;
  out.report = wl.Run();
  out.lockdep_reports = lockdep::ReportCount() - lockdep_before;

  AuditOptions audit;
  audit.expect_quiescent = true;
  const Status status = TraceAuditor::Check(trace.Snapshot(), audit);
  out.audit_clean = status.ok();
  if (!status.ok()) {
    out.audit_error = status.message();
  }
  return out;
}

struct CellSummary {
  const WorkloadCell* workload;
  const ChaosCell* chaos;
  std::vector<RunOutcome> runs;  // one per pinned seed

  double goodput = 0.0;        // mean over seeds
  double shed_fraction = 0.0;  // mean over seeds, of offered
  double commit_fraction = 0.0;
  double p50_ms = 0.0;  // worst seed
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double peak_uncertain = 0.0;
  double avg_uncertain = 0.0;
  bool invariants_ok = true;
  Threshold threshold;
  bool pass = true;
};

CellSummary Summarize(const WorkloadCell& workload, const ChaosCell& chaos,
                      std::vector<RunOutcome> runs) {
  CellSummary cell;
  cell.workload = &workload;
  cell.chaos = &chaos;
  cell.runs = std::move(runs);
  for (const RunOutcome& run : cell.runs) {
    const ClusterWorkloadReport& r = run.report;
    cell.goodput += r.goodput;
    const double offered =
        r.offered == 0 ? 1.0 : static_cast<double>(r.offered);
    cell.shed_fraction += static_cast<double>(r.shed) / offered;
    cell.commit_fraction += static_cast<double>(r.committed) / offered;
    cell.p50_ms = std::max(cell.p50_ms, r.p50 * 1e3);
    cell.p99_ms = std::max(cell.p99_ms, r.p99 * 1e3);
    cell.p999_ms = std::max(cell.p999_ms, r.p999 * 1e3);
    cell.peak_uncertain = std::max(cell.peak_uncertain,
                                   r.peak_uncertain_items);
    cell.avg_uncertain += r.avg_uncertain_items;
    const bool run_ok = run.audit_clean && run.lockdep_reports == 0 &&
                        r.ExactlyOnce() && r.conservation_drift == 0 &&
                        r.final_uncertain_items == 0;
    if (!run_ok) {
      cell.invariants_ok = false;
    }
  }
  const double n = static_cast<double>(cell.runs.size());
  cell.goodput /= n;
  cell.shed_fraction /= n;
  cell.commit_fraction /= n;
  cell.avg_uncertain /= n;
  cell.threshold = ThresholdFor(workload.name, chaos.name);
  cell.pass = cell.invariants_ok &&
              cell.goodput >= cell.threshold.min_goodput &&
              cell.p99_ms <= cell.threshold.max_p99_ms;
  return cell;
}

void AppendRun(std::string* json, const RunOutcome& run, uint64_t seed) {
  const ClusterWorkloadReport& r = run.report;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"seed\": %llu, \"arrivals\": %llu, \"rejected_down\": %llu, "
      "\"offered\": %llu, \"shed\": %llu, \"committed\": %llu, "
      "\"aborted\": %llu, \"deadline_exceeded\": %llu, "
      "\"budget_exhausted\": %llu, \"retries\": %llu, "
      "\"goodput\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
      "\"p999_ms\": %.3f, \"peak_uncertain_items\": %.1f, "
      "\"avg_uncertain_items\": %.3f, \"final_uncertain_items\": %llu, "
      "\"polyvalue_installs\": %llu, \"conservation_drift\": %lld, "
      "\"peak_tracked_clients\": %llu, \"peak_inflight\": %llu, "
      "\"exactly_once\": %s, \"audit_clean\": %s, "
      "\"lockdep_reports\": %d, \"schedule_hash\": \"%016llx\"}",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(r.arrivals),
      static_cast<unsigned long long>(r.rejected_down),
      static_cast<unsigned long long>(r.offered),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.committed),
      static_cast<unsigned long long>(r.aborted),
      static_cast<unsigned long long>(r.deadline_exceeded),
      static_cast<unsigned long long>(r.budget_exhausted),
      static_cast<unsigned long long>(r.retries), r.goodput, r.p50 * 1e3,
      r.p99 * 1e3, r.p999 * 1e3, r.peak_uncertain_items,
      r.avg_uncertain_items,
      static_cast<unsigned long long>(r.final_uncertain_items),
      static_cast<unsigned long long>(r.polyvalue_installs),
      static_cast<long long>(r.conservation_drift),
      static_cast<unsigned long long>(r.peak_tracked_clients),
      static_cast<unsigned long long>(r.peak_inflight),
      r.ExactlyOnce() ? "true" : "false",
      run.audit_clean ? "true" : "false", run.lockdep_reports,
      static_cast<unsigned long long>(r.schedule_hash));
  *json += buf;
}

void AppendCell(std::string* json, const CellSummary& cell, bool first) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "%s\n    {\"workload\": \"%s\", \"chaos\": \"%s\", "
      "\"key_dist\": \"%s\", \"arrival\": \"%s\", \"replicated\": %s,\n"
      "     \"goodput\": %.3f, \"shed_fraction\": %.4f, "
      "\"commit_fraction\": %.4f,\n"
      "     \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f,\n"
      "     \"peak_uncertain_items\": %.1f, \"avg_uncertain_items\": "
      "%.3f,\n"
      "     \"invariants_ok\": %s, \"min_goodput\": %.1f, "
      "\"max_p99_ms\": %.1f, \"pass\": %s,\n"
      "     \"runs\": [",
      first ? "" : ",", cell.workload->name, cell.chaos->name,
      KeyDistKindName(cell.workload->key_dist),
      ArrivalCurveKindName(cell.workload->arrival),
      cell.chaos->replicated ? "true" : "false", cell.goodput,
      cell.shed_fraction, cell.commit_fraction, cell.p50_ms, cell.p99_ms,
      cell.p999_ms, cell.peak_uncertain, cell.avg_uncertain,
      cell.invariants_ok ? "true" : "false", cell.threshold.min_goodput,
      cell.threshold.max_p99_ms, cell.pass ? "true" : "false");
  *json += buf;
  for (size_t i = 0; i < cell.runs.size(); ++i) {
    *json += i == 0 ? "\n       " : ",\n       ";
    AppendRun(json, cell.runs[i], kSeeds[i]);
  }
  *json += "]}";
}

int Run() {
  std::vector<CellSummary> cells;
  std::printf(
      "Cluster chaos soak: %zu sites, %llu keys, %llu virtual clients,\n"
      "%.0f arrivals/s for %.0f virtual s per cell (+%.0f s settle), "
      "seeds {%llu, %llu}.\n"
      "Grid: 4 workload mixes x 4 chaos scenarios, plus 2 geo mixes x 3 "
      "replicated\nchaos scenarios (%zu regions, k=%zu); every run audited "
      "(A1-A13, lockdep,\nexactly-once, conservation).\n\n",
      kSites, static_cast<unsigned long long>(kKeys),
      static_cast<unsigned long long>(kVirtualClients), kRate, kDuration,
      kSettle, static_cast<unsigned long long>(kSeeds[0]),
      static_cast<unsigned long long>(kSeeds[1]), kRegions,
      kReplicationFactor);
  std::printf("%-16s %-17s %8s %7s %7s %9s %9s %6s %5s\n", "workload",
              "chaos", "goodput", "shed%", "commit%", "p99 ms",
              "p99.9 ms", "inv", "pass");
  std::printf("%.*s\n", 96,
              "------------------------------------------------------------"
              "------------------------------------");

  bool all_pass = true;
  for (const WorkloadCell& workload : kWorkloads) {
    for (const ChaosCell& chaos : kChaos) {
      if (chaos.replicated && !RunsReplicatedChaos(workload)) {
        continue;
      }
      std::vector<RunOutcome> runs;
      for (uint64_t seed : kSeeds) {
        runs.push_back(RunCell(workload, chaos, seed));
        const RunOutcome& run = runs.back();
        if (!run.audit_clean) {
          std::fprintf(stderr, "AUDIT VIOLATION %s/%s seed %llu: %s\n",
                       workload.name, chaos.name,
                       static_cast<unsigned long long>(seed),
                       run.audit_error.c_str());
        }
      }
      CellSummary cell = Summarize(workload, chaos, std::move(runs));
      std::printf("%-16s %-17s %8.1f %6.1f%% %6.1f%% %9.2f %9.2f %6s %5s\n",
                  workload.name, chaos.name, cell.goodput,
                  100.0 * cell.shed_fraction, 100.0 * cell.commit_fraction,
                  cell.p99_ms, cell.p999_ms,
                  cell.invariants_ok ? "ok" : "FAIL",
                  cell.pass ? "ok" : "FAIL");
      all_pass = all_pass && cell.pass;
      cells.push_back(std::move(cell));
    }
  }

  // One consolidated JSON document for CI to diff, gate, and archive.
  std::string json = "{\n  \"schema_version\": 1,\n"
                     "  \"bench\": \"bench_cluster\",\n  \"config\": {";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"sites\": %zu, \"keys\": %llu, \"virtual_clients\": %llu, "
      "\"rate\": %.1f, \"duration_s\": %.1f, \"settle_s\": %.1f, "
      "\"deadline_s\": %.3f, \"rate_limit\": %.1f, \"max_inflight\": %zu, "
      "\"regions\": %zu, \"replication_factor\": %zu, "
      "\"seeds\": [%llu, %llu]},\n  \"scenarios\": [",
      kSites, static_cast<unsigned long long>(kKeys),
      static_cast<unsigned long long>(kVirtualClients), kRate, kDuration,
      kSettle, kDeadline, kRateLimit, kMaxInflight, kRegions,
      kReplicationFactor, static_cast<unsigned long long>(kSeeds[0]),
      static_cast<unsigned long long>(kSeeds[1]));
  json += buf;
  for (size_t i = 0; i < cells.size(); ++i) {
    AppendCell(&json, cells[i], i == 0);
  }
  json += "\n  ],\n  \"pass\": ";
  json += all_pass ? "true" : "false";
  json += "\n}\n";

  const char* env = std::getenv("POLYV_CLUSTER_JSON");
  const std::string path = env != nullptr ? env : "BENCH_cluster.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "failed to open %s for writing\n", path.c_str());
    return 1;
  }
  out << json;
  out.close();
  std::printf("\ncluster soak JSON written to %s\n", path.c_str());

  if (!all_pass) {
    std::fprintf(stderr,
                 "FAIL: at least one soak cell violated an invariant or "
                 "regressed past its threshold\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace polyvalue

int main() { return polyvalue::Run(); }
