// Tests for the partial-replication subsystem (src/replica/): region
// topology, deterministic k-of-n placement, the logical-item catalog,
// the failover read router, the WAN latency/chaos model, the A12/A13
// trace invariants, and a short replicated end-to-end soak.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/obs/audit.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/replica/catalog.h"
#include "src/replica/consistency.h"
#include "src/replica/placement.h"
#include "src/replica/router.h"
#include "src/replica/topology.h"
#include "src/replica/wan.h"
#include "src/workload/driver.h"

namespace polyvalue {
namespace {

SimCluster::Options ClusterOptions(size_t sites) {
  SimCluster::Options options;
  options.site_count = sites;
  options.engine.wait_timeout = 0.05;
  options.engine.inquiry_interval = 0.2;
  options.engine.validate_installs = true;
  options.min_delay = 0.01;
  options.max_delay = 0.01;
  return options;
}

PlacementPolicy Policy(size_t k) {
  PlacementPolicy policy;
  policy.replication_factor = k;
  return policy;
}

TEST(TopologyTest, SymmetricGridShape) {
  const RegionTopology topo = RegionTopology::SymmetricGrid(3, 3);
  EXPECT_EQ(topo.region_count(), 3u);
  EXPECT_EQ(topo.site_count(), 9u);
  EXPECT_EQ(topo.region(0).name, "r0");
  EXPECT_EQ(topo.region(2).name, "r2");
  // Row-major: region 0 holds sites 1..3, region 2 holds 7..9.
  EXPECT_EQ(topo.RegionOf(SiteId(1)), 0u);
  EXPECT_EQ(topo.RegionOf(SiteId(3)), 0u);
  EXPECT_EQ(topo.RegionOf(SiteId(4)), 1u);
  EXPECT_EQ(topo.RegionOf(SiteId(9)), 2u);
  EXPECT_EQ(topo.RegionNameOf(SiteId(5)), "r1");
  EXPECT_TRUE(topo.Contains(SiteId(9)));
  EXPECT_FALSE(topo.Contains(SiteId(10)));
  EXPECT_EQ(topo.AllSites().size(), 9u);
}

TEST(PlacementTest, PureFunctionOfSeedAndTopology) {
  const RegionTopology topo = RegionTopology::SymmetricGrid(3, 3);
  const ReplicaPlacement a(topo, Policy(3));
  const ReplicaPlacement b(topo, Policy(3));
  for (int i = 0; i < 64; ++i) {
    const std::string name = "item/" + std::to_string(i);
    EXPECT_EQ(a.SitesFor(name), b.SitesFor(name)) << name;
  }
}

TEST(PlacementTest, SpreadsCopiesAcrossRegions) {
  const RegionTopology topo = RegionTopology::SymmetricGrid(3, 3);
  const ReplicaPlacement placement(topo, Policy(3));
  for (int i = 0; i < 128; ++i) {
    const std::vector<SiteId> sites =
        placement.SitesFor("item/" + std::to_string(i));
    ASSERT_EQ(sites.size(), 3u);
    std::set<size_t> regions;
    std::set<uint64_t> distinct;
    for (SiteId site : sites) {
      regions.insert(topo.RegionOf(site));
      distinct.insert(site.value());
    }
    EXPECT_EQ(regions.size(), 3u) << "item/" << i;
    EXPECT_EQ(distinct.size(), 3u) << "item/" << i;
  }
}

TEST(PlacementTest, ReusesRegionsOnlyWhenKExceedsThem) {
  const RegionTopology topo = RegionTopology::SymmetricGrid(2, 3);
  const ReplicaPlacement placement(topo, Policy(4));
  for (int i = 0; i < 64; ++i) {
    const std::vector<SiteId> sites =
        placement.SitesFor("item/" + std::to_string(i));
    ASSERT_EQ(sites.size(), 4u);
    std::set<size_t> regions;
    std::set<uint64_t> distinct;
    for (SiteId site : sites) {
      regions.insert(topo.RegionOf(site));
      distinct.insert(site.value());
    }
    EXPECT_EQ(regions.size(), 2u);   // both regions used...
    EXPECT_EQ(distinct.size(), 4u);  // ...and never the same site twice
  }
}

TEST(PlacementTest, SeedChangesTheLayout) {
  const RegionTopology topo = RegionTopology::SymmetricGrid(3, 3);
  PlacementPolicy other = Policy(3);
  other.seed ^= 0xdeadbeefULL;
  const ReplicaPlacement a(topo, Policy(3));
  const ReplicaPlacement b(topo, other);
  int moved = 0;
  for (int i = 0; i < 128; ++i) {
    const std::string name = "item/" + std::to_string(i);
    if (a.SitesFor(name) != b.SitesFor(name)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(CatalogTest, UniformNamesAndLookup) {
  const RegionTopology topo = RegionTopology::SymmetricGrid(2, 2);
  const ReplicaPlacement placement(topo, Policy(2));
  const ReplicaCatalog catalog =
      ReplicaCatalog::Uniform(placement, "g/", 8);
  EXPECT_EQ(catalog.size(), 8u);
  EXPECT_EQ(catalog.at(3).logical_name(), "g/3");
  EXPECT_EQ(catalog.Find("g/5").logical_name(), "g/5");
  EXPECT_EQ(catalog.at(0).size(), 2u);
}

TEST(CatalogTest, LoadAllSeedsEveryCopyAndAnnouncesDigests) {
  SimCluster cluster(ClusterOptions(4));
  const RegionTopology topo = RegionTopology::SymmetricGrid(2, 2);
  const ReplicaPlacement placement(topo, Policy(2));
  const ReplicaCatalog catalog =
      ReplicaCatalog::Uniform(placement, "g/", 8);
  VectorTraceSink trace;
  catalog.LoadAll(&cluster, Value::Int(100), &trace);

  for (size_t i = 0; i < catalog.size(); ++i) {
    const ReplicaSet& set = catalog.at(i);
    for (SiteId site : set.sites()) {
      EXPECT_EQ(cluster.site(site.value() - 1)
                    .Peek(set.KeyAt(site))
                    .value()
                    .certain_value(),
                Value::Int(100));
    }
  }
  size_t announced = 0;
  for (const TraceEvent& e : trace.Snapshot()) {
    if (e.type == TraceEventType::kReplicaWrite) {
      ++announced;
      EXPECT_EQ(e.arg, DigestValue(Value::Int(100)));
    }
  }
  EXPECT_EQ(announced, catalog.size());
}

// --- Read router -----------------------------------------------------

struct RouterFixture {
  SimCluster cluster;
  RegionTopology topo;
  ReplicaCatalog catalog;

  RouterFixture()
      : cluster(ClusterOptions(4)),
        topo(RegionTopology::SymmetricGrid(2, 2)),
        catalog(ReplicaCatalog::Uniform(
            ReplicaPlacement(topo, Policy(2)), "g/", 8)) {
    catalog.LoadAll(&cluster, Value::Int(7), nullptr);
  }
};

TEST(RouterTest, PreferenceOrderPutsLocalRegionFirst) {
  RouterFixture f;
  ReadRouterOptions options;
  options.local_region = 1;
  ReadRouter router(&f.cluster, &f.topo, options);
  for (size_t i = 0; i < f.catalog.size(); ++i) {
    const std::vector<SiteId> order =
        router.PreferenceOrder(f.catalog.at(i));
    ASSERT_EQ(order.size(), 2u);
    // k=2 over two regions puts one copy in each; region 1 leads.
    EXPECT_EQ(f.topo.RegionOf(order[0]), 1u);
    EXPECT_EQ(f.topo.RegionOf(order[1]), 0u);
  }
}

TEST(RouterTest, ServesCertainValue) {
  RouterFixture f;
  ReadRouter router(&f.cluster, &f.topo, ReadRouterOptions{});
  std::optional<Result<Value>> got;
  router.Read(f.catalog.at(0), [&](const Result<Value>& r) { got = r; });
  f.cluster.RunFor(1.0);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok());
  EXPECT_EQ(got->value(), Value::Int(7));
  EXPECT_EQ(router.counters().served, 1u);
  EXPECT_EQ(router.counters().failed, 0u);
}

TEST(RouterTest, FailsOverPastCrashedCopy) {
  RouterFixture f;
  VectorTraceSink trace;
  ReadRouterOptions options;
  options.trace = &trace;
  ReadRouter router(&f.cluster, &f.topo, options);
  const ReplicaSet& set = f.catalog.at(0);
  const std::vector<SiteId> order = router.PreferenceOrder(set);
  f.cluster.CrashSite(order[0].value() - 1);

  std::optional<Result<Value>> got;
  router.Read(set, [&](const Result<Value>& r) { got = r; });
  f.cluster.RunFor(1.0);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok());
  EXPECT_EQ(got->value(), Value::Int(7));
  EXPECT_GE(router.counters().failovers, 1u);
  bool saw_failover = false;
  for (const TraceEvent& e : trace.Snapshot()) {
    saw_failover = saw_failover ||
                   e.type == TraceEventType::kReplicaFailover;
  }
  EXPECT_TRUE(saw_failover);
}

TEST(RouterTest, UnavailableWhenEveryCopyIsDown) {
  RouterFixture f;
  ReadRouter router(&f.cluster, &f.topo, ReadRouterOptions{});
  const ReplicaSet& set = f.catalog.at(0);
  for (SiteId site : set.sites()) {
    f.cluster.CrashSite(site.value() - 1);
  }
  std::optional<Result<Value>> got;
  router.Read(set, [&](const Result<Value>& r) { got = r; });
  f.cluster.RunFor(1.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok());
  EXPECT_EQ(got->status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(router.counters().failed, 1u);

  MetricsRegistry metrics;
  router.ExportMetrics(&metrics);
  EXPECT_EQ(metrics.counter("replica.failed"), 1u);
}

// --- WAN model -------------------------------------------------------

TEST(WanTest, ProfileShapesInterRegionDelays) {
  const RegionTopology topo = RegionTopology::SymmetricGrid(2, 2);
  FaultPlan faults;
  faults.SetDelayRange(0.001, 0.001);
  WanProfile profile;
  InstallWanProfile(topo, profile, &faults);
  Rng rng(42);
  for (int i = 0; i < 64; ++i) {
    // Site 1 (r0) -> site 3 (r1): inter-region range.
    const double inter = faults.SampleDelay(SiteId(1), SiteId(3), &rng);
    EXPECT_GE(inter, profile.inter_min);
    EXPECT_LE(inter, profile.inter_max);
    // Site 1 -> site 2: same region.
    const double intra = faults.SampleDelay(SiteId(1), SiteId(2), &rng);
    EXPECT_GE(intra, profile.intra_min);
    EXPECT_LE(intra, profile.intra_max);
  }
}

TEST(WanTest, NoOverrideMatchesDefaultDrawForDraw) {
  // With no override on the link, each sample is one draw from the
  // default range, so schedules that never install a WAN profile keep
  // their exact delays.
  FaultPlan faults;
  faults.SetDelayRange(0.002, 0.01);
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(faults.SampleDelay(SiteId(1), SiteId(2), &a),
              0.002 + b.NextDouble() * (0.01 - 0.002));
  }
}

TEST(WanTest, OneWayPartitionCutsOneDirectionOnly) {
  const RegionTopology topo = RegionTopology::SymmetricGrid(2, 2);
  SimCluster cluster(ClusterOptions(4));
  ScheduleOneWayPartition(&cluster, topo, 0, 1, 1.0, 2.0);
  cluster.RunFor(1.5);
  Rng rng(1);
  // r0 -> r1 cut, reverse direction still delivering.
  EXPECT_FALSE(cluster.faults().ShouldDeliver(SiteId(1), SiteId(3), &rng));
  EXPECT_TRUE(cluster.faults().ShouldDeliver(SiteId(3), SiteId(1), &rng));
  cluster.RunFor(1.0);
  EXPECT_TRUE(cluster.faults().ShouldDeliver(SiteId(1), SiteId(3), &rng));
}

TEST(WanTest, RegionLossAndRollingRecovery) {
  const RegionTopology topo = RegionTopology::SymmetricGrid(2, 2);
  SimCluster cluster(ClusterOptions(4));
  ScheduleRegionLoss(&cluster, topo, 1, 1.0);
  ScheduleRollingRecovery(&cluster, topo, 1, 2.0, 0.5);
  cluster.RunFor(1.5);
  EXPECT_FALSE(cluster.site(0).crashed());
  EXPECT_TRUE(cluster.site(2).crashed());
  EXPECT_TRUE(cluster.site(3).crashed());
  cluster.RunFor(0.75);  // t=2.25: first r1 site back, second still down
  EXPECT_FALSE(cluster.site(2).crashed());
  EXPECT_TRUE(cluster.site(3).crashed());
  cluster.RunFor(0.5);
  EXPECT_FALSE(cluster.site(3).crashed());
}

// --- A12 / A13 auditor -----------------------------------------------

TraceEvent Ev(TraceEventType type, int site, const std::string& key,
              uint64_t arg, bool flag = false) {
  TraceEvent e;
  e.type = type;
  e.site = SiteId(site);
  e.key = key;
  e.arg = arg;
  e.flag = flag;
  return e;
}

TEST(ReplicaAuditTest, ConvergedSweepPasses) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kReplicaSetInfo, 1, "g/0", 2),
      Ev(TraceEventType::kReplicaDigest, 1, "g/0", 77),
      Ev(TraceEventType::kReplicaDigest, 2, "g/0", 77),
  };
  EXPECT_TRUE(TraceAuditor::Check(trace, AuditOptions{}).ok());
}

TEST(ReplicaAuditTest, DivergentCopiesViolateA12) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kReplicaSetInfo, 1, "g/0", 2),
      Ev(TraceEventType::kReplicaDigest, 1, "g/0", 77),
      Ev(TraceEventType::kReplicaDigest, 2, "g/0", 78),
  };
  const Status status = TraceAuditor::Check(trace, AuditOptions{});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("diverge"), std::string::npos);
}

TEST(ReplicaAuditTest, CopyCountMismatchViolatesA12) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kReplicaSetInfo, 1, "g/0", 3),
      Ev(TraceEventType::kReplicaDigest, 1, "g/0", 77),
      Ev(TraceEventType::kReplicaDigest, 2, "g/0", 77),
  };
  EXPECT_FALSE(TraceAuditor::Check(trace, AuditOptions{}).ok());
}

TEST(ReplicaAuditTest, ZeroDigestViolatesA12) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kReplicaSetInfo, 1, "g/0", 2),
      Ev(TraceEventType::kReplicaDigest, 1, "g/0", 77),
      Ev(TraceEventType::kReplicaDigest, 2, "g/0", 0),
  };
  const Status status = TraceAuditor::Check(trace, AuditOptions{});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unconverged"), std::string::npos);
}

TEST(ReplicaAuditTest, DigestOutsideSweepIsFlagged) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kReplicaDigest, 1, "g/0", 77),
  };
  EXPECT_FALSE(TraceAuditor::Check(trace, AuditOptions{}).ok());
}

TEST(ReplicaAuditTest, AnnouncedReadSatisfiesA13) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kReplicaWrite, 1, "g/0", 55),
      Ev(TraceEventType::kReplicaRead, 2, "g/0", 55, true),
  };
  EXPECT_TRUE(TraceAuditor::Check(trace, AuditOptions{}).ok());
}

TEST(ReplicaAuditTest, LateAnnouncementStillSatisfiesA13) {
  // The announcement may trail the read (a commit whose output was
  // still uncertain when the client saw it announces at settlement);
  // the whole-trace pre-pass must accept this ordering.
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kReplicaRead, 2, "g/0", 55, true),
      Ev(TraceEventType::kReplicaWrite, 1, "g/0", 55),
  };
  EXPECT_TRUE(TraceAuditor::Check(trace, AuditOptions{}).ok());
}

TEST(ReplicaAuditTest, UnannouncedCertainReadViolatesA13) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kReplicaWrite, 1, "g/0", 55),
      Ev(TraceEventType::kReplicaRead, 2, "g/0", 56, true),
  };
  const Status status = TraceAuditor::Check(trace, AuditOptions{});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("aborted-branch"), std::string::npos);
}

TEST(ReplicaAuditTest, UncertainReadIsNotConstrained) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kReplicaRead, 2, "g/0", 56, false),
  };
  EXPECT_TRUE(TraceAuditor::Check(trace, AuditOptions{}).ok());
}

TEST(ReplicaAuditTest, RepairCountsAsAnnouncement) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kReplicaRepair, 1, "g/0", 55),
      Ev(TraceEventType::kReplicaRead, 2, "g/0", 55, true),
  };
  EXPECT_TRUE(TraceAuditor::Check(trace, AuditOptions{}).ok());
}

// --- Replicated end-to-end soak --------------------------------------

TEST(ReplicatedWorkloadTest, ShortSoakHoldsEveryInvariant) {
  VectorTraceSink trace;
  ClusterWorkloadParams params;
  params.sites = 4;
  params.regions = 2;
  params.replication_factor = 2;
  params.keys = 32;
  params.virtual_clients = 10000;
  params.arrival.rate = 40.0;
  params.mix = MultiSiteMix();
  params.duration = 10.0;
  params.settle_time = 4.0;
  params.deadline = 0.5;
  params.seed = 20260808;
  params.trace = &trace;

  ClusterWorkload wl(params);
  ASSERT_TRUE(wl.replicated());
  ASSERT_NE(wl.catalog(), nullptr);
  EXPECT_EQ(wl.catalog()->size(), params.keys);
  // Lose one region mid-load; the driver heals before the settle.
  ScheduleRegionLoss(&wl.cluster(), *wl.topology(), 1, 3.0);

  const ClusterWorkloadReport report = wl.Run();
  EXPECT_TRUE(report.ExactlyOnce()) << report.Summary();
  EXPECT_EQ(report.conservation_drift, 0) << report.Summary();
  EXPECT_EQ(report.final_uncertain_items, 0u) << report.Summary();
  EXPECT_GT(report.committed, 0u);

  const Status audit = TraceAuditor::Check(trace.Snapshot(), AuditOptions{});
  EXPECT_TRUE(audit.ok()) << audit.message();

  // The driver's end-of-run digest sweep must cover every logical item.
  size_t sweeps = 0;
  for (const TraceEvent& e : trace.Snapshot()) {
    if (e.type == TraceEventType::kReplicaSetInfo) {
      ++sweeps;
    }
  }
  EXPECT_EQ(sweeps, params.keys);

  // Copies really converged (the stores agree with the trace).
  for (size_t i = 0; i < wl.catalog()->size(); ++i) {
    const ReplicaCheckReport check =
        CheckReplicaSet(&wl.cluster(), wl.catalog()->at(i));
    EXPECT_TRUE(check.consistent())
        << wl.catalog()->at(i).logical_name();
  }
}

TEST(ReplicatedWorkloadTest, ScheduleIsReproducible) {
  auto run = [] {
    ClusterWorkloadParams params;
    params.sites = 4;
    params.regions = 2;
    params.replication_factor = 2;
    params.keys = 16;
    params.virtual_clients = 5000;
    params.arrival.rate = 30.0;
    params.duration = 5.0;
    params.settle_time = 2.0;
    params.deadline = 0.5;
    params.seed = 99;
    ClusterWorkload wl(params);
    return wl.Run();
  };
  const ClusterWorkloadReport a = run();
  const ClusterWorkloadReport b = run();
  EXPECT_EQ(a.schedule_hash, b.schedule_hash);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.Summary(), b.Summary());
}

}  // namespace
}  // namespace polyvalue
