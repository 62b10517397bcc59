// Serving front door tests: admission control, deadline budgets,
// retry budgets, and — the point of the layer — deterministic overload
// behaviour on the simulated cluster. The overload cases run entirely
// in virtual time, so "goodput does not collapse at 2x saturation" is
// a reproducible assertion, not a flaky benchmark.
#include "src/svc/front_door.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/audit.h"

namespace polyvalue {
namespace {

TxnSpec Increment(const ItemKey& key, SiteId site) {
  TxnSpec spec;
  spec.ReadWrite(key, site);
  spec.Logic([key](const TxnReads& reads) {
    TxnEffect e;
    e.writes[key] = Value::Int(reads.IntAt(key) + 1);
    return e;
  });
  return spec;
}

TxnSpec ReadMissing(SiteId site) {
  TxnSpec spec;
  spec.Read("missing", site);
  spec.Logic([](const TxnReads&) { return TxnEffect{}; });
  return spec;
}

// ----------------------------------------------------------------
// AdmissionController / RetryBudget units
// ----------------------------------------------------------------

TEST(AdmissionControllerTest, TokenBucketShedsAboveRate) {
  AdmissionController::Options options;
  options.rate_limit = 10.0;
  options.burst = 5.0;
  AdmissionController admission(options);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(admission.Admit(0.0).ok()) << i;
    admission.Release();
  }
  bool rate_limited = false;
  const Status shed = admission.Admit(0.0, &rate_limited);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(rate_limited);
  EXPECT_EQ(admission.shed_rate(), 1u);
  // Half a second refills 5 tokens.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(admission.Admit(0.5).ok()) << i;
    admission.Release();
  }
  EXPECT_FALSE(admission.Admit(0.5).ok());
  EXPECT_EQ(admission.admitted(), 10u);
  EXPECT_EQ(admission.shed(), 2u);
}

TEST(AdmissionControllerTest, InflightCapShedsUntilRelease) {
  AdmissionController::Options options;
  options.max_inflight = 2;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit(0.0).ok());
  EXPECT_TRUE(admission.Admit(0.0).ok());
  bool rate_limited = true;
  const Status shed = admission.Admit(0.0, &rate_limited);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(rate_limited);  // capacity, not rate
  EXPECT_EQ(admission.shed_capacity(), 1u);
  EXPECT_EQ(admission.inflight(), 2u);
  admission.Release();
  EXPECT_TRUE(admission.Admit(0.0).ok());
}

TEST(AdmissionControllerTest, UnlimitedByDefault) {
  AdmissionController admission(AdmissionController::Options{});
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(admission.Admit(0.0).ok());
  }
  EXPECT_EQ(admission.inflight(), 100u);
  EXPECT_EQ(admission.shed(), 0u);
}

TEST(RetryBudgetTest, SpendsDownThenEarnsByAttempts) {
  RetryBudget::Options options;
  options.initial = 2.0;
  options.ratio = 0.25;  // exactly representable: 4 attempts = 1 retry
  options.cap = 50.0;
  RetryBudget budget(options);
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_FALSE(budget.TrySpend());
  EXPECT_EQ(budget.denied(), 1u);
  // Four first attempts earn exactly one retry.
  for (int i = 0; i < 4; ++i) {
    budget.OnAttempt();
  }
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_FALSE(budget.TrySpend());
}

TEST(RetryBudgetTest, BalanceIsCapped) {
  RetryBudget::Options options;
  options.initial = 0.0;
  options.ratio = 1.0;
  options.cap = 3.0;
  RetryBudget budget(options);
  for (int i = 0; i < 100; ++i) {
    budget.OnAttempt();
  }
  EXPECT_DOUBLE_EQ(budget.balance(), 3.0);
}

// ----------------------------------------------------------------
// SimFrontDoor: typed refusal, deadlines, retries
// ----------------------------------------------------------------

TEST(SimFrontDoorTest, CommitsUncontendedCall) {
  SimCluster::Options options;
  options.site_count = 2;
  SimCluster cluster(options);
  cluster.Load(1, "x", Value::Int(41));
  SimFrontDoor door(&cluster, SvcOptions{});
  const SvcResult result = door.CallAndRun(0, [&cluster] {
    return Increment("x", cluster.site_id(1));
  });
  EXPECT_TRUE(result.ok());
  ASSERT_TRUE(result.txn.has_value());
  EXPECT_TRUE(result.txn->committed());
  EXPECT_EQ(result.attempts, 1);
  EXPECT_GT(result.latency, 0.0);
  EXPECT_EQ(door.counters().committed, 1u);
  EXPECT_EQ(door.admission().inflight(), 0u);
}

TEST(SimFrontDoorTest, InflightCapShedsTyped) {
  SimCluster::Options options;
  options.site_count = 2;
  SimCluster cluster(options);
  cluster.Load(1, "x", Value::Int(0));
  SvcOptions svc;
  svc.admission.max_inflight = 2;
  SimFrontDoor door(&cluster, svc);
  std::vector<SvcResult> results;
  for (int i = 0; i < 5; ++i) {
    door.Call(0, [&cluster] { return Increment("x", cluster.site_id(1)); },
              [&results](const SvcResult& r) { results.push_back(r); });
  }
  // The three over-cap calls were refused synchronously and typed as
  // RESOURCE_EXHAUSTED (nothing ran yet: refusal is pre-engine).
  ASSERT_EQ(results.size(), 3u);
  for (const SvcResult& r : results) {
    EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(r.attempts, 0);
    EXPECT_FALSE(r.txn.has_value());
  }
  cluster.RunAll();
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(door.counters().committed, 2u);
  EXPECT_EQ(door.admission().shed_capacity(), 3u);
  EXPECT_EQ(door.admission().inflight(), 0u);
}

TEST(SimFrontDoorTest, DeadlineFiresMidRetry) {
  SimCluster::Options options;
  options.site_count = 2;
  SimCluster cluster(options);
  VectorTraceSink trace;
  SvcOptions svc;
  svc.trace = &trace;
  svc.max_attempts = 100;          // deadline must bind first
  svc.initial_backoff = 0.002;
  svc.max_backoff = 0.004;
  svc.retry_budget.initial = 50.0;
  SimFrontDoor door(&cluster, svc);
  // Every attempt aborts (missing item); the 30ms deadline expires
  // while the retry loop is still going.
  const SvcResult result = door.CallAndRun(
      0, [&cluster] { return ReadMissing(cluster.site_id(1)); },
      /*deadline_seconds=*/0.03);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(result.attempts, 2);
  // Outcome unknown: the answer names the last attempt to look up.
  EXPECT_TRUE(result.last_txn.valid());
  EXPECT_EQ(door.counters().deadline_exceeded, 1u);
  EXPECT_GE(door.counters().retries, 1u);
  // The settlement is on the deadline budget, give or take one backoff
  // step (the overshoot check settles early rather than sleeping past).
  EXPECT_LE(result.latency, 0.03 + 1e-9);
  bool saw_deadline_event = false;
  bool saw_retry_event = false;
  for (const TraceEvent& e : trace.Snapshot()) {
    saw_deadline_event |= e.type == TraceEventType::kSvcDeadlineExceeded;
    saw_retry_event |= e.type == TraceEventType::kSvcRetry;
  }
  EXPECT_TRUE(saw_deadline_event);
  EXPECT_TRUE(saw_retry_event);
}

TEST(SimFrontDoorTest, ZeroDeadlineIsTypedDeadlineNotShed) {
  SimCluster::Options options;
  options.site_count = 2;
  SimCluster cluster(options);
  cluster.Load(1, "x", Value::Int(0));
  SimFrontDoor door(&cluster, SvcOptions{});
  const SvcResult result = door.CallAndRun(
      0, [&cluster] { return Increment("x", cluster.site_id(1)); },
      /*deadline_seconds=*/0.0);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.attempts, 0);
  EXPECT_FALSE(result.last_txn.valid());  // no attempt ever started
  // It was ADMITTED (occupied a slot, recorded latency) — deadline
  // expiry is not load shedding.
  EXPECT_EQ(door.admission().admitted(), 1u);
  EXPECT_EQ(door.admission().shed(), 0u);
  EXPECT_EQ(door.counters().deadline_exceeded, 1u);
}

TEST(SimFrontDoorTest, RetryBudgetExhaustionIsTyped) {
  SimCluster::Options options;
  options.site_count = 2;
  SimCluster cluster(options);
  SvcOptions svc;
  svc.max_attempts = 100;
  svc.default_deadline = 10.0;     // deadline must NOT bind
  svc.retry_budget.initial = 3.0;  // three retries, then denial
  svc.retry_budget.ratio = 0.0;
  SimFrontDoor door(&cluster, svc);
  const SvcResult result = door.CallAndRun(
      0, [&cluster] { return ReadMissing(cluster.site_id(1)); });
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(result.attempts, 4);  // 1 first attempt + 3 budgeted retries
  EXPECT_EQ(door.counters().budget_exhausted, 1u);
  EXPECT_EQ(door.retry_budget().denied(), 1u);
}

TEST(SimFrontDoorTest, AbortedAfterMaxAttempts) {
  SimCluster::Options options;
  options.site_count = 2;
  SimCluster cluster(options);
  SvcOptions svc;
  svc.max_attempts = 3;
  svc.default_deadline = 10.0;
  svc.retry_budget.initial = 50.0;
  SimFrontDoor door(&cluster, svc);
  const SvcResult result = door.CallAndRun(
      0, [&cluster] { return ReadMissing(cluster.site_id(1)); });
  EXPECT_EQ(result.status.code(), StatusCode::kAborted);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(door.counters().aborted, 1u);
}

TEST(SimFrontDoorTest, ExportsMetricsFamily) {
  SimCluster::Options options;
  options.site_count = 2;
  SimCluster cluster(options);
  cluster.Load(1, "x", Value::Int(0));
  SimFrontDoor door(&cluster, SvcOptions{});
  for (int i = 0; i < 8; ++i) {
    const SvcResult result = door.CallAndRun(0, [&cluster] {
      return Increment("x", cluster.site_id(1));
    });
    EXPECT_TRUE(result.ok());
  }
  MetricsRegistry registry;
  door.ExportMetrics(&registry);
  EXPECT_EQ(registry.counter("svc.admitted"), 8u);
  EXPECT_EQ(registry.counter("svc.committed"), 8u);
  EXPECT_EQ(registry.counter("svc.shed"), 0u);
  EXPECT_EQ(registry.counter("svc.latency_count"), 8u);
  // Commit latency is a couple of network round trips: the percentile
  // gauges must be positive and ordered.
  const double p50 = registry.gauge("svc.latency_p50");
  const double p99 = registry.gauge("svc.latency_p99");
  const double p999 = registry.gauge("svc.latency_p999");
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
}

// ----------------------------------------------------------------
// Deterministic overload behaviour at and beyond saturation
// ----------------------------------------------------------------

struct OverloadOutcome {
  uint64_t offered = 0;
  double goodput = 0.0;        // commits per second of virtual time
  double shed_fraction = 0.0;  // of offered
  uint64_t deadline_exceeded = 0;
};

// Open-loop Poisson arrivals at `offered_rps` for `duration` virtual
// seconds against a small hot item set — contention, not CPU, is what
// saturates the simulated cluster. Deterministic per seed.
OverloadOutcome RunOverload(double offered_rps, double duration,
                            double rate_limit, uint64_t seed) {
  SimCluster::Options options;
  options.site_count = 2;
  options.seed = seed;
  SimCluster cluster(options);
  constexpr int kItems = 8;
  for (int i = 0; i < kItems; ++i) {
    cluster.Load(1, "h" + std::to_string(i), Value::Int(0));
  }
  SvcOptions svc;
  svc.admission.rate_limit = rate_limit;
  svc.admission.max_inflight = 24;
  svc.default_deadline = 0.5;
  svc.initial_backoff = 0.004;
  svc.max_backoff = 0.05;
  svc.seed = seed ^ 0x5eedu;
  SimFrontDoor door(&cluster, svc);

  Rng arrivals(seed);
  Rng pick(seed ^ 0xbeefu);
  uint64_t offered = 0;
  double t = arrivals.NextExponential(1.0 / offered_rps);
  while (t < duration) {
    const std::string key =
        "h" + std::to_string(pick.NextBelow(kItems));
    cluster.sim().At(t, [&door, &cluster, key] {
      door.Call(0, [&cluster, key] {
        return Increment(key, cluster.site_id(1));
      });
    });
    ++offered;
    t += arrivals.NextExponential(1.0 / offered_rps);
  }
  cluster.RunAll();
  OverloadOutcome outcome;
  outcome.offered = offered;
  outcome.goodput =
      static_cast<double>(door.counters().committed) / duration;
  outcome.shed_fraction =
      static_cast<double>(door.admission().shed()) /
      static_cast<double>(offered);
  outcome.deadline_exceeded = door.counters().deadline_exceeded;
  return outcome;
}

TEST(SimFrontDoorOverloadTest, GoodputHoldsAtTwiceSaturation) {
  // Rate limit pinned at 300 admitted/s; the hot-set capacity is above
  // that, so at 1x the cluster runs near saturation and commits most of
  // what it admits.
  constexpr double kRate = 300.0;
  constexpr double kDuration = 4.0;
  const OverloadOutcome at_peak = RunOverload(kRate, kDuration, kRate, 7);
  const OverloadOutcome at_2x =
      RunOverload(2.0 * kRate, kDuration, kRate, 7);

  // Peak actually saturates: goodput at 1x is a healthy fraction of
  // the offered rate.
  EXPECT_GT(at_peak.goodput, 0.6 * kRate);

  // THE acceptance property: doubling offered load past saturation
  // does not collapse goodput — admission control converts overload
  // into typed sheds instead of lock-conflict livelock. Bounded
  // factor: at 2x we keep at least 70% of peak goodput.
  EXPECT_GT(at_2x.goodput, 0.7 * at_peak.goodput);

  // The surplus was shed, and shed is bounded too: roughly the
  // overload fraction (1/2), not everything.
  EXPECT_GT(at_2x.shed_fraction, 0.25);
  EXPECT_LT(at_2x.shed_fraction, 0.75);
}

TEST(SimFrontDoorOverloadTest, OverloadRunIsDeterministic) {
  const OverloadOutcome a = RunOverload(400.0, 2.0, 200.0, 11);
  const OverloadOutcome b = RunOverload(400.0, 2.0, 200.0, 11);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_DOUBLE_EQ(a.goodput, b.goodput);
  EXPECT_DOUBLE_EQ(a.shed_fraction, b.shed_fraction);
  EXPECT_EQ(a.deadline_exceeded, b.deadline_exceeded);
}

TEST(SimFrontDoorOverloadTest, TraceStaysAuditCleanUnderOverload) {
  SimCluster::Options options;
  options.site_count = 2;
  options.seed = 13;
  VectorTraceSink trace;
  options.trace = &trace;
  SimCluster cluster(options);
  for (int i = 0; i < 4; ++i) {
    cluster.Load(1, "h" + std::to_string(i), Value::Int(0));
  }
  SvcOptions svc;
  svc.admission.rate_limit = 100.0;
  svc.admission.max_inflight = 8;
  svc.default_deadline = 0.3;
  svc.trace = &trace;  // svc_* events interleave with protocol events
  SimFrontDoor door(&cluster, svc);
  Rng arrivals(13);
  Rng pick(14);
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += arrivals.NextExponential(1.0 / 400.0);
    const std::string key = "h" + std::to_string(pick.NextBelow(4));
    cluster.sim().At(t, [&door, &cluster, key] {
      door.Call(0, [&cluster, key] {
        return Increment(key, cluster.site_id(1));
      });
    });
  }
  cluster.RunAll();
  // The protocol invariants hold with the serving layer in front, and
  // the auditor tolerates the svc_* event kinds.
  const Status audit = TraceAuditor::Check(trace.Snapshot());
  EXPECT_TRUE(audit.ok()) << audit;
}

}  // namespace
}  // namespace polyvalue
