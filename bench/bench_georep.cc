// Geo-replication bench: local-read vs primary-read latency and
// availability under full region failure.
//
// Topology: 3 regions ("r0".."r2") x 3 sites, WAN-shaped links
// (sub-ms in region, 30-80 ms one-way across regions), and a k=3
// replica catalog placed by the seeded consistent-hash policy — every
// logical item holds exactly one copy per region. Clients live in
// region r0: each read picks a live front-end coordinator (r0 first)
// and routes through the ReadRouter under one of three strategies:
//
//   local_failover    prefer the r0 copy, fail over on timeout/refusal
//   primary_failover  placement (primary) order, failover enabled
//   primary_only      primary copy or nothing (max_attempts = 1)
//
// Scenario per strategy: steady read probes (every 250 ms) and
// replicated increments (every 1 s) for 60 s of virtual time; at
// t=20 s ALL of region r0 is lost — the client region itself — and
// from t=40 s it heals site-by-site (rolling recovery, 2 s stagger).
// After the load window everything heals and the run drains.
//
// What the bench demonstrates (and gates on):
//   * pre-loss latency: local reads cost intra-region RTT, primary
//     reads pay the WAN whenever the primary landed remote;
//   * failover strategies keep serving through the ENTIRE region
//     outage — the longest silent gap between successful reads is
//     bounded by the failover timeout + probe cadence, NOT by the
//     20 s outage — while primary_only goes dark for every item whose
//     primary copy lived in the lost region;
//   * correctness: TraceAuditor invariants A1-A13 over each run's
//     trace (A12 copy convergence from the end-of-run digest sweep,
//     A13 read provenance for every certain routed read), replica
//     consistency checks over the whole catalog, and zero residual
//     uncertainty.
//
// Results go to stdout and to BENCH_georep.json (override with
// POLYV_GEOREP_JSON). The simulator is seeded and deterministic: two
// runs emit byte-identical JSON, which CI verifies. The exit status is
// the verdict: non-zero if any strategy misses a gate above, if its
// probe and read counts do not add up, or if local reads are not 5x
// faster than primary reads before the loss.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/lockdep.h"
#include "src/obs/audit.h"
#include "src/obs/trace.h"
#include "src/replica/catalog.h"
#include "src/replica/consistency.h"
#include "src/replica/placement.h"
#include "src/replica/router.h"
#include "src/replica/topology.h"
#include "src/replica/wan.h"

namespace polyvalue {
namespace {

constexpr size_t kRegions = 3;
constexpr size_t kSitesPerRegion = 3;
constexpr size_t kSites = kRegions * kSitesPerRegion;
constexpr size_t kReplicationFactor = 3;
constexpr uint64_t kKeys = 64;
constexpr uint64_t kSeed = 20260808;
constexpr int64_t kInitialBalance = 100;

constexpr double kReadInterval = 0.25;
constexpr double kWriteInterval = 1.0;
constexpr double kLoadDuration = 60.0;
constexpr double kSettle = 15.0;
constexpr double kFailoverTimeout = 0.5;  // > worst-case WAN read RTT

constexpr double kRegionLossAt = 20.0;
constexpr double kRecoveryAt = 40.0;
constexpr double kRecoveryStagger = 2.0;
constexpr size_t kLostRegion = 0;  // the CLIENT region goes dark

// A refused probe retries like a real client would: a read can race a
// concurrent update whose copies are still locked or polyvalued (the
// router refuses uncertain copies — A13), and the refusal clears as
// soon as that update settles. Retries are bounded, so a genuinely
// dark item (primary_only during the outage) still counts as failed.
constexpr int kReadRetries = 2;
constexpr double kRetryBackoff = 0.4;

// Gates. The availability gap for failover strategies must be bounded
// by probe cadence + per-copy failover timeouts — a fixed bound that
// does NOT scale with the 20 s outage.
constexpr double kMaxFailoverGap =
    kReadInterval + kReplicationFactor * kFailoverTimeout + 0.35;
static_assert(kMaxFailoverGap < kRecoveryAt - kRegionLossAt,
              "the failover gap bound must separate failover from the "
              "outage");
// Local reads must be at least this many times faster than primary
// reads before the loss (intra-region vs WAN round trips).
constexpr double kLocalSpeedup = 5.0;

struct Strategy {
  const char* name;
  bool prefer_local;
  size_t max_attempts;  // 0 = every copy
};

constexpr Strategy kStrategies[] = {
    {"local_failover", true, 0},
    {"primary_failover", false, 0},
    {"primary_only", false, 1},
};
// The local-vs-primary latency gate in Run() compares the first two.
static_assert(std::string_view(kStrategies[0].name) == "local_failover" &&
              std::string_view(kStrategies[1].name) == "primary_failover");

struct ReadSample {
  double issued;
  double settled;
  bool served;
};

struct StrategyResult {
  const Strategy* strategy;

  uint64_t reads = 0;       // routed reads, retries included
  uint64_t served = 0;
  uint64_t failed = 0;
  uint64_t failovers = 0;
  uint64_t local_served = 0;
  uint64_t probes = 0;      // client probes (one per sample slot)
  uint64_t probes_served = 0;
  uint64_t write_commits = 0;
  uint64_t write_aborts = 0;

  double pre_loss_p50_ms = 0.0;
  double pre_loss_p99_ms = 0.0;
  double outage_availability = 0.0;  // served/issued in [loss, recovery)
  double overall_availability = 0.0;
  double max_success_gap_s = 0.0;  // longest silence between successes

  bool audit_clean = false;
  std::string audit_error;
  bool replicas_consistent = false;
  uint64_t final_uncertain = 0;
  int lockdep_reports = 0;

  bool pass = false;
};

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(
      pct / 100.0 * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

// First live site, region-0 front ends first — the client's redirect
// when its home region is dark.
size_t PickCoordinator(SimCluster* cluster) {
  for (size_t i = 0; i < kSites; ++i) {
    if (!cluster->site(i).crashed()) {
      return i;
    }
  }
  return 0;
}

StrategyResult RunStrategy(const Strategy& strategy) {
  StrategyResult result;
  result.strategy = &strategy;

  VectorTraceSink trace;
  SimCluster::Options options;
  options.site_count = kSites;
  // Engine timeouts sized for WAN round trips (80 ms one-way worst
  // case): a prepare must be allowed to cross the planet and return.
  options.engine.wait_timeout = 0.5;
  options.engine.inquiry_interval = 1.0;
  options.engine.validate_installs = true;
  options.seed = kSeed;
  options.trace = &trace;
  SimCluster cluster(options);

  const RegionTopology topo =
      RegionTopology::SymmetricGrid(kRegions, kSitesPerRegion);
  WanProfile wan;
  InstallWanProfile(topo, wan, &cluster.faults());

  PlacementPolicy policy;
  policy.replication_factor = kReplicationFactor;
  const ReplicaCatalog catalog = ReplicaCatalog::Uniform(
      ReplicaPlacement(topo, policy), "g/", kKeys);
  catalog.LoadAll(&cluster, Value::Int(kInitialBalance), &trace);

  ReadRouterOptions router_options;
  router_options.failover_timeout = kFailoverTimeout;
  router_options.prefer_local = strategy.prefer_local;
  router_options.local_region = 0;
  router_options.max_attempts = strategy.max_attempts;
  router_options.trace = &trace;
  ReadRouter router(&cluster, &topo, router_options);

  Simulator& sim = cluster.sim();
  const int lockdep_before = lockdep::ReportCount();

  // Chaos: the client region dies mid-load, then heals site-by-site.
  ScheduleRegionLoss(&cluster, topo, kLostRegion, kRegionLossAt);
  ScheduleRollingRecovery(&cluster, topo, kLostRegion, kRecoveryAt,
                          kRecoveryStagger);

  // Read probes: round-robin over the catalog so every placement (and
  // therefore every primary region) is exercised.
  auto samples = std::make_shared<std::vector<ReadSample>>();
  uint64_t next_item = 0;
  // One routed read, plus up to kReadRetries re-issues (each at a
  // fresh live coordinator) before the probe is recorded as failed.
  std::function<void(size_t, uint64_t, int)> issue =
      [&](size_t slot, uint64_t item, int retries_left) {
        const ReplicaSet& set = catalog.at(item % kKeys);
        const SiteId coordinator =
            cluster.site_id(PickCoordinator(&cluster));
        router.Read(
            set, coordinator,
            [&, slot, item, retries_left](const Result<Value>& r) {
              if (!r.ok() && retries_left > 0) {
                sim.After(kRetryBackoff, [&, slot, item, retries_left] {
                  issue(slot, item, retries_left - 1);
                });
                return;
              }
              (*samples)[slot].settled = sim.now();
              (*samples)[slot].served = r.ok();
            });
      };
  std::function<void(double)> probe = [&](double at) {
    sim.At(at, [&, at] {
      if (at + kReadInterval <= kLoadDuration) {
        probe(at + kReadInterval);
      }
      const uint64_t item = next_item++;
      const size_t slot = samples->size();
      samples->push_back(ReadSample{at, 0.0, false});
      issue(slot, item, kReadRetries);
    });
  };
  probe(0.1);

  // Replicated increments, one item per tick. Commit announcements
  // feed A13 exactly like the workload driver: certain outputs
  // announce their digest, uncertain committed outputs over-announce
  // every possible branch.
  uint64_t next_write = 0;
  std::function<void(double)> write = [&](double at) {
    sim.At(at, [&, at] {
      if (at + kWriteInterval <= kLoadDuration) {
        write(at + kWriteInterval);
      }
      const ReplicaSet& set = catalog.at((next_write * 7 + 3) % kKeys);
      ++next_write;
      const size_t coordinator = PickCoordinator(&cluster);
      const SiteId coord_site = cluster.site_id(coordinator);
      const std::string logical = set.logical_name();
      cluster.Submit(
          coordinator,
          set.MakeUpdate(
              [](const Value& v) { return Add(v, Value::Int(1)); }),
          [&, coord_site, logical](const TxnResult& r) {
            if (!r.committed()) {
              ++result.write_aborts;
              return;
            }
            ++result.write_commits;
            TraceEvent event;
            event.time = sim.now();
            event.type = TraceEventType::kReplicaWrite;
            event.site = coord_site;
            event.key = logical;
            if (r.output.is_certain()) {
              event.arg = DigestValue(r.output.certain_value());
              trace.Emit(event);
            } else {
              for (const Value& v : r.output.PossibleValues()) {
                event.arg = DigestValue(v);
                trace.Emit(event);
              }
            }
          });
    });
  };
  write(0.4);

  // Load, heal, drain.
  cluster.RunFor(kLoadDuration);
  for (size_t i = 0; i < kSites; ++i) {
    if (cluster.site(i).crashed()) {
      cluster.RecoverSite(i);
    }
  }
  cluster.faults().HealAll();
  cluster.RunFor(kSettle);

  // End-of-run digest sweep: the A12 evidence.
  for (size_t i = 0; i < kKeys; ++i) {
    EmitReplicaDigests(&cluster, catalog.at(i), &trace);
  }

  // Collect.
  result.reads = router.counters().reads;
  result.served = router.counters().served;
  result.failed = router.counters().failed;
  result.failovers = router.counters().failovers;
  result.local_served = router.counters().local_served;
  result.lockdep_reports = lockdep::ReportCount() - lockdep_before;

  std::vector<double> pre_loss_ms;
  uint64_t outage_issued = 0;
  uint64_t outage_served = 0;
  double last_success = 0.0;
  for (const ReadSample& s : *samples) {
    if (s.settled <= 0.0) {
      continue;  // a probe the run never settled (none expected)
    }
    ++result.probes;
    result.probes_served += s.served ? 1 : 0;
    if (s.served) {
      result.max_success_gap_s =
          std::max(result.max_success_gap_s, s.settled - last_success);
      last_success = s.settled;
    }
    if (s.issued < kRegionLossAt) {
      if (s.served) {
        pre_loss_ms.push_back((s.settled - s.issued) * 1e3);
      }
    }
    if (s.issued >= kRegionLossAt && s.issued < kRecoveryAt) {
      ++outage_issued;
      outage_served += s.served ? 1 : 0;
    }
  }
  // A final silent stretch counts too (a strategy that never recovers
  // must not hide its gap past the last sample).
  result.max_success_gap_s =
      std::max(result.max_success_gap_s, kLoadDuration - last_success);
  result.pre_loss_p50_ms = Percentile(pre_loss_ms, 50);
  result.pre_loss_p99_ms = Percentile(pre_loss_ms, 99);
  result.outage_availability =
      outage_issued == 0
          ? 0.0
          : static_cast<double>(outage_served) /
                static_cast<double>(outage_issued);
  result.overall_availability =
      result.probes == 0 ? 0.0
                         : static_cast<double>(result.probes_served) /
                               static_cast<double>(result.probes);

  const Status audit =
      TraceAuditor::Check(trace.Snapshot(), AuditOptions{});
  result.audit_clean = audit.ok();
  if (!audit.ok()) {
    result.audit_error = audit.message();
  }
  result.replicas_consistent = true;
  for (size_t i = 0; i < kKeys; ++i) {
    if (!CheckReplicaSet(&cluster, catalog.at(i)).consistent()) {
      result.replicas_consistent = false;
    }
  }
  result.final_uncertain = cluster.TotalUncertainItems();

  // The probe and read counts must add up, and writes must have landed.
  const bool counts_add_up =
      result.probes > 0 && result.probes_served <= result.probes &&
      result.reads >= result.probes &&
      result.served + result.failed == result.reads &&
      result.write_commits > 0;
  const bool correctness =
      result.audit_clean && result.replicas_consistent &&
      result.final_uncertain == 0 && result.lockdep_reports == 0 &&
      counts_add_up;
  if (strategy.max_attempts == 0) {
    // Failover strategies: reads survive the ENTIRE region loss, and
    // the longest silence is failover-bounded, not outage-bounded.
    result.pass = correctness && result.outage_availability == 1.0 &&
                  result.max_success_gap_s <= kMaxFailoverGap;
  } else {
    // primary_only exists to show the contrast: items whose primary
    // lived in r0 go dark for the whole outage.
    result.pass = correctness && result.outage_availability < 0.9;
  }
  return result;
}

void AppendStrategy(std::string* json, const StrategyResult& r,
                    bool first) {
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "%s\n    {\"strategy\": \"%s\", \"prefer_local\": %s, "
      "\"max_attempts\": %zu,\n"
      "     \"probes\": %llu, \"probes_served\": %llu, "
      "\"reads\": %llu, \"served\": %llu, \"failed\": %llu, "
      "\"failovers\": %llu, \"local_served\": %llu,\n"
      "     \"write_commits\": %llu, \"write_aborts\": %llu,\n"
      "     \"pre_loss_p50_ms\": %.3f, \"pre_loss_p99_ms\": %.3f,\n"
      "     \"outage_availability\": %.4f, "
      "\"overall_availability\": %.4f, "
      "\"max_success_gap_s\": %.3f,\n"
      "     \"audit_clean\": %s, \"replicas_consistent\": %s, "
      "\"final_uncertain\": %llu, \"lockdep_reports\": %d, "
      "\"pass\": %s}",
      first ? "" : ",", r.strategy->name,
      r.strategy->prefer_local ? "true" : "false",
      r.strategy->max_attempts,
      static_cast<unsigned long long>(r.probes),
      static_cast<unsigned long long>(r.probes_served),
      static_cast<unsigned long long>(r.reads),
      static_cast<unsigned long long>(r.served),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.failovers),
      static_cast<unsigned long long>(r.local_served),
      static_cast<unsigned long long>(r.write_commits),
      static_cast<unsigned long long>(r.write_aborts),
      r.pre_loss_p50_ms, r.pre_loss_p99_ms, r.outage_availability,
      r.overall_availability, r.max_success_gap_s,
      r.audit_clean ? "true" : "false",
      r.replicas_consistent ? "true" : "false",
      static_cast<unsigned long long>(r.final_uncertain),
      r.lockdep_reports, r.pass ? "true" : "false");
  *json += buf;
}

int Run() {
  std::printf(
      "Geo-replication bench: %zu regions x %zu sites, k=%zu, %llu "
      "logical items.\n"
      "Region r0 (the client region) lost at t=%.0fs, rolling recovery "
      "from t=%.0fs;\nreads every %.2fs, increments every %.1fs, "
      "audited A1-A13 per strategy.\n\n",
      kRegions, kSitesPerRegion, kReplicationFactor,
      static_cast<unsigned long long>(kKeys), kRegionLossAt, kRecoveryAt,
      kReadInterval, kWriteInterval);
  std::printf("%-17s %6s %6s %6s %9s %9s %8s %8s %7s %5s\n", "strategy",
              "reads", "served", "fail", "p50 ms", "p99 ms", "out-avl",
              "max-gap", "audit", "pass");
  std::printf("%.*s\n", 92,
              "------------------------------------------------------------"
              "------------------------------------");

  std::vector<StrategyResult> results;
  bool all_pass = true;
  for (const Strategy& strategy : kStrategies) {
    results.push_back(RunStrategy(strategy));
    const StrategyResult& r = results.back();
    if (!r.audit_clean) {
      std::fprintf(stderr, "AUDIT VIOLATION %s: %s\n", strategy.name,
                   r.audit_error.c_str());
    }
    std::printf("%-17s %6llu %6llu %6llu %9.2f %9.2f %7.1f%% %7.2fs %7s "
                "%5s\n",
                strategy.name, static_cast<unsigned long long>(r.reads),
                static_cast<unsigned long long>(r.served),
                static_cast<unsigned long long>(r.failed),
                r.pre_loss_p50_ms, r.pre_loss_p99_ms,
                100.0 * r.outage_availability, r.max_success_gap_s,
                r.audit_clean ? "ok" : "FAIL", r.pass ? "ok" : "FAIL");
    all_pass = all_pass && r.pass;
  }
  // Local copies answer at intra-region latency; primaries usually sit
  // across the WAN.
  const bool local_is_faster = results[0].pre_loss_p50_ms * kLocalSpeedup <=
                               results[1].pre_loss_p50_ms;
  if (!local_is_faster) {
    std::fprintf(stderr,
                 "local-read p50 %.3f ms is not %.0fx faster than "
                 "primary-read p50 %.3f ms\n",
                 results[0].pre_loss_p50_ms, kLocalSpeedup,
                 results[1].pre_loss_p50_ms);
  }
  all_pass = all_pass && local_is_faster;

  std::string json = "{\n  \"schema_version\": 1,\n"
                     "  \"bench\": \"bench_georep\",\n  \"config\": {";
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "\"regions\": %zu, \"sites_per_region\": %zu, "
      "\"replication_factor\": %zu, \"keys\": %llu, \"seed\": %llu, "
      "\"read_interval_s\": %.2f, \"write_interval_s\": %.1f, "
      "\"load_duration_s\": %.1f, \"settle_s\": %.1f, "
      "\"failover_timeout_s\": %.2f, \"read_retries\": %d, "
      "\"retry_backoff_s\": %.2f, \"region_loss_at_s\": %.1f, "
      "\"recovery_at_s\": %.1f, \"recovery_stagger_s\": %.1f, "
      "\"lost_region\": %zu, \"max_failover_gap_s\": %.2f},\n"
      "  \"strategies\": [",
      kRegions, kSitesPerRegion, kReplicationFactor,
      static_cast<unsigned long long>(kKeys),
      static_cast<unsigned long long>(kSeed), kReadInterval,
      kWriteInterval, kLoadDuration, kSettle, kFailoverTimeout,
      kReadRetries, kRetryBackoff, kRegionLossAt, kRecoveryAt,
      kRecoveryStagger, kLostRegion, kMaxFailoverGap);
  json += buf;
  for (size_t i = 0; i < results.size(); ++i) {
    AppendStrategy(&json, results[i], i == 0);
  }
  json += "\n  ],\n  \"pass\": ";
  json += all_pass ? "true" : "false";
  json += "\n}\n";

  const char* env = std::getenv("POLYV_GEOREP_JSON");
  const std::string path = env != nullptr ? env : "BENCH_georep.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "failed to open %s for writing\n", path.c_str());
    return 1;
  }
  out << json;
  out.close();
  std::printf("\ngeo-replication JSON written to %s\n", path.c_str());

  if (!all_pass) {
    std::fprintf(stderr,
                 "FAIL: a strategy violated an invariant or missed its "
                 "availability/latency gate (see above)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace polyvalue

int main() { return polyvalue::Run(); }
