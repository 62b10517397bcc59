// Short-horizon cluster soak for tier-1 CTest: the bench_cluster grid
// compressed to seconds. Every cell drives mixed transaction shapes
// from >= 100k virtual clients through the serving front door while a
// chaos schedule runs, then asserts the full correctness battery:
//
//   * TraceAuditor invariants A1-A8 over the complete protocol trace
//     (quiescent form: uncertainty drains, submits terminate);
//   * lockdep stays silent;
//   * exactly-once arrival accounting — every generated arrival ends in
//     exactly one of {rejected_down, shed, committed, aborted,
//     deadline_exceeded, budget_exhausted} and no callback is lost;
//   * conservation — final total balance equals initial plus committed
//     increment deltas, and nothing stays uncertain after healing.
//
// The long-horizon version of this grid (hours of sim-time, regression
// thresholds, JSON artifact) lives in bench/bench_cluster.cc; this test
// keeps the same invariants in every `ctest` run.
#include <gtest/gtest.h>

#include <ostream>

#include "src/common/lockdep.h"
#include "src/obs/audit.h"
#include "src/obs/trace.h"
#include "src/workload/driver.h"

namespace polyvalue {
namespace {

struct SoakCase {
  const char* name;
  KeyDistKind key_dist;
  ArrivalCurveKind arrival;
  MixParams (*mix)();
  bool flap_coordinator;
  bool rolling_outage;
  double drop_probability;
};

// Without this, gtest prints a SoakCase as its raw bytes, which include
// the address of `name`; under ASLR that makes the registered CTest name
// differ from build to build.
void PrintTo(const SoakCase& c, std::ostream* os) { *os << c.name; }

class ClusterSoakTest : public ::testing::TestWithParam<SoakCase> {};

TEST_P(ClusterSoakTest, InvariantsHoldUnderChaos) {
  const SoakCase& c = GetParam();
  VectorTraceSink trace;

  ClusterWorkloadParams params;
  params.sites = 4;
  params.keys = 128;
  params.virtual_clients = 150000;  // >= 100k contract
  params.key_dist.kind = c.key_dist;
  params.arrival.kind = c.arrival;
  params.arrival.rate = 80.0;
  params.arrival.diurnal_period = 10.0;
  params.arrival.herd_interval = 4.0;
  params.mix = c.mix();
  params.duration = 20.0;
  params.settle_time = 6.0;
  params.deadline = 0.5;
  params.svc.admission.rate_limit = 100.0;
  params.svc.admission.max_inflight = 48;
  params.seed = 20260808;
  params.trace = &trace;

  const int lockdep_before = lockdep::ReportCount();
  ClusterWorkload wl(params);
  SimCluster& cluster = wl.cluster();
  if (c.flap_coordinator) {
    cluster.sim().At(5.0, [&cluster] { cluster.CrashSite(0); });
    cluster.sim().At(8.0, [&cluster] { cluster.RecoverSite(0); });
    cluster.sim().At(13.0, [&cluster] { cluster.CrashSite(0); });
    cluster.sim().At(16.0, [&cluster] { cluster.RecoverSite(0); });
  }
  if (c.rolling_outage) {
    for (size_t s = 0; s < 4; ++s) {
      const double down = 3.0 + 4.0 * static_cast<double>(s);
      cluster.sim().At(down, [&cluster, s] { cluster.CrashSite(s); });
      cluster.sim().At(down + 2.5,
                       [&cluster, s] { cluster.RecoverSite(s); });
    }
  }
  if (c.drop_probability > 0.0) {
    cluster.faults().SetDropProbability(c.drop_probability);
  }

  const ClusterWorkloadReport report = wl.Run();
  SCOPED_TRACE(report.Summary());

  // The run actually exercised the system.
  ASSERT_GT(report.arrivals, 1000u);
  EXPECT_GT(report.committed, report.arrivals / 3);

  // Exactly-once arrival accounting.
  EXPECT_TRUE(report.ExactlyOnce());
  EXPECT_EQ(report.unsettled, 0u);

  // Conservation and post-heal certainty.
  EXPECT_EQ(report.conservation_drift, 0);
  EXPECT_EQ(report.final_uncertain_items, 0u);

  // Protocol-trace invariants A1-A8, quiescent form.
  const Status audit = TraceAuditor::Check(trace.Snapshot(),
                                           {/*expect_quiescent=*/true});
  EXPECT_TRUE(audit.ok()) << audit.message();

  // No lock-order reports anywhere in the run.
  EXPECT_EQ(lockdep::ReportCount(), lockdep_before);

  // O(in-flight) footprint: tracked clients stay within the admission
  // concurrency cap (+1 for the arrival being admitted), nowhere near
  // the 150k population.
  EXPECT_LE(report.peak_tracked_clients,
            params.svc.admission.max_inflight + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClusterSoakTest,
    ::testing::Values(
        // Every mix under a coordinator flap.
        SoakCase{"read_heavy_flap", KeyDistKind::kZipfian,
                 ArrivalCurveKind::kPoisson, &ReadHeavyMix, true, false,
                 0.0},
        SoakCase{"write_heavy_flap", KeyDistKind::kUniform,
                 ArrivalCurveKind::kConstant, &WriteHeavyMix, true, false,
                 0.0},
        SoakCase{"increment_heavy_flap", KeyDistKind::kHotSet,
                 ArrivalCurveKind::kHerd, &IncrementHeavyMix, true, false,
                 0.0},
        SoakCase{"multi_site_flap", KeyDistKind::kZipfian,
                 ArrivalCurveKind::kDiurnal, &MultiSiteMix, true, false,
                 0.0},
        // Rolling outages and a lossy network on the widest mix.
        SoakCase{"multi_site_rolling", KeyDistKind::kZipfian,
                 ArrivalCurveKind::kPoisson, &MultiSiteMix, false, true,
                 0.0},
        SoakCase{"multi_site_lossy", KeyDistKind::kZipfian,
                 ArrivalCurveKind::kPoisson, &MultiSiteMix, false, false,
                 0.03},
        // Everything at once.
        SoakCase{"write_heavy_flap_lossy", KeyDistKind::kUniform,
                 ArrivalCurveKind::kHerd, &WriteHeavyMix, true, false,
                 0.02}),
    [](const ::testing::TestParamInfo<SoakCase>& param_info) {
      return param_info.param.name;
    });

// DEADLINE_EXCEEDED means "outcome unknown": a deadline shorter than
// one commit's four 20 ms hops fires while every distributed attempt is
// still in flight, and those attempts then commit. The conservation
// audit must count them by asking the coordinator for the decision.
TEST(LateCommitTest, DeadlineBeforeCommitLeavesNoDrift) {
  ClusterWorkloadParams params;
  params.sites = 2;
  params.keys = 16;
  params.min_delay = 0.02;
  params.max_delay = 0.02;
  params.virtual_clients = 1000;
  params.arrival.kind = ArrivalCurveKind::kConstant;
  params.arrival.rate = 5.0;
  params.mix = MixParams{0.0, 0.0, 1.0, 0.0};  // increments only
  params.duration = 4.0;
  params.settle_time = 2.0;
  params.deadline = 0.05;
  params.seed = 7;

  ClusterWorkload wl(params);
  const ClusterWorkloadReport report = wl.Run();
  SCOPED_TRACE(report.Summary());
  ASSERT_TRUE(report.ExactlyOnce());
  ASSERT_GT(report.deadline_exceeded, 0u);

  // Late commits really happened: the balances moved by more than the
  // requests answered OK could account for.
  int64_t total = 0;
  for (size_t s = 0; s < params.sites; ++s) {
    wl.cluster().site(s).store().ForEach(
        [&total](const ItemKey&, const PolyValue& value) {
          total += value.certain_value().int_value();
        });
  }
  const int64_t initial =
      params.initial_balance * static_cast<int64_t>(params.keys);
  EXPECT_GT(total - initial, static_cast<int64_t>(report.committed * 5));

  EXPECT_EQ(report.conservation_drift, 0);
  EXPECT_EQ(report.final_uncertain_items, 0u);
}

}  // namespace
}  // namespace polyvalue
