// Network partition scenarios: unlike a crash, both halves keep running.
// The paper's availability goal: "the failure of a site should not
// indefinitely delay any transaction that does not access data stored at
// that site" — partitions are the harder version (nobody failed, the
// network did).
#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/obs/audit.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

EngineConfig FastConfig() {
  EngineConfig config;
  config.prepare_timeout = 0.25;
  config.ready_timeout = 0.25;
  config.wait_timeout = 0.05;
  config.inquiry_interval = 0.2;
  config.validate_installs = true;
  return config;
}

SimCluster::Options ClusterOptions() {
  SimCluster::Options options;
  options.site_count = 4;
  options.engine = FastConfig();
  options.min_delay = 0.01;
  options.max_delay = 0.01;
  return options;
}

TxnSpec Transfer(const ItemKey& from, SiteId from_site, const ItemKey& to,
                 SiteId to_site, int64_t amount) {
  TxnSpec spec;
  spec.ReadWrite(from, from_site);
  spec.ReadWrite(to, to_site);
  spec.Logic([from, to, amount](const TxnReads& reads) {
    TxnEffect e;
    e.writes[from] = Value::Int(reads.IntAt(from) - amount);
    e.writes[to] = Value::Int(reads.IntAt(to) + amount);
    return e;
  });
  return spec;
}

TEST(PartitionTest, EachSideKeepsProcessingLocalTraffic) {
  VectorTraceSink trace;
  SimCluster::Options options = ClusterOptions();
  options.trace = &trace;
  SimCluster cluster(options);
  cluster.Load(0, "a0", Value::Int(100));
  cluster.Load(1, "a1", Value::Int(100));
  cluster.Load(2, "a2", Value::Int(100));
  cluster.Load(3, "a3", Value::Int(100));
  cluster.faults().Partition(
      {cluster.site_id(0), cluster.site_id(1)},
      {cluster.site_id(2), cluster.site_id(3)});

  // Side A: 0 <-> 1 transfer works.
  auto result = cluster.SubmitAndRun(
      0, Transfer("a0", cluster.site_id(0), "a1", cluster.site_id(1), 10));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed());
  // Side B: 2 <-> 3 transfer works.
  result = cluster.SubmitAndRun(
      2, Transfer("a2", cluster.site_id(2), "a3", cluster.site_id(3), 10));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed());
  // Cross-partition transfer aborts (prepare timeout), harming nothing.
  result = cluster.SubmitAndRun(
      0, Transfer("a0", cluster.site_id(0), "a2", cluster.site_id(2), 10));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->committed());
  cluster.RunFor(1.0);
  EXPECT_EQ(cluster.site(0).store().locked_count(), 0u);
  // Even with the partition still up, the path taken was legal and the
  // in-doubt window the cross-cut abort opened has drained.
  const Status audit = TraceAuditor::Check(trace.Snapshot());
  EXPECT_TRUE(audit.ok()) << audit.message();
}

TEST(PartitionTest, PartitionDuringCommitStrandsThenHeals) {
  VectorTraceSink trace;
  SimCluster::Options options = ClusterOptions();
  options.trace = &trace;
  SimCluster cluster(options);
  cluster.Load(1, "a", Value::Int(100));
  cluster.Load(2, "b", Value::Int(50));
  std::optional<TxnResult> result;
  cluster.Submit(
      0, Transfer("a", cluster.site_id(1), "b", cluster.site_id(2), 30),
      [&result](const TxnResult& r) { result = r; });
  // Cut the coordinator off from everyone between READY (sent ~0.03) and
  // COMPLETE (sent ~0.04).
  cluster.sim().At(0.035, [&cluster] {
    cluster.faults().Partition(
        {cluster.site_id(0)},
        {cluster.site_id(1), cluster.site_id(2), cluster.site_id(3)});
  });
  cluster.RunFor(0.3);
  // The coordinator decided COMMIT (it got the READYs) and told the
  // client, but the COMPLETEs were cut: participants hold polyvalues.
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed());
  EXPECT_FALSE(cluster.site(1).Peek("a").value().is_certain());
  EXPECT_FALSE(cluster.site(2).Peek("b").value().is_certain());
  // The items stay available meanwhile (site 3 queries site 1).
  TxnSpec query;
  query.Read("a", cluster.site_id(1));
  query.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.output = Value::Bool(reads.IntAt("a") > 0);
    return e;
  });
  const auto q = cluster.SubmitAndRun(3, std::move(query));
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(q->committed());
  EXPECT_EQ(q->output.certain_value(), Value::Bool(true));
  // Heal: inquiry reaches the coordinator; COMMIT propagates.
  cluster.faults().HealLinks();
  cluster.RunFor(2.0);
  EXPECT_EQ(cluster.site(1).Peek("a").value().certain_value(),
            Value::Int(70));
  EXPECT_EQ(cluster.site(2).Peek("b").value().certain_value(),
            Value::Int(80));
  EXPECT_EQ(cluster.TotalUncertainItems(), 0u);
  const Status audit = TraceAuditor::Check(trace.Snapshot());
  EXPECT_TRUE(audit.ok()) << audit.message();
}

TEST(PartitionTest, AsymmetricInDoubtAcrossTheCut) {
  // Participants land on both sides of the cut: the side with the
  // coordinator completes normally, the other side goes polyvalue.
  VectorTraceSink trace;
  SimCluster::Options options = ClusterOptions();
  options.trace = &trace;
  SimCluster cluster(options);
  cluster.Load(1, "a", Value::Int(100));
  cluster.Load(2, "b", Value::Int(50));
  std::optional<TxnResult> result;
  cluster.Submit(
      0, Transfer("a", cluster.site_id(1), "b", cluster.site_id(2), 30),
      [&result](const TxnResult& r) { result = r; });
  cluster.sim().At(0.035, [&cluster] {
    cluster.faults().Partition(
        {cluster.site_id(0), cluster.site_id(1)},
        {cluster.site_id(2), cluster.site_id(3)});
  });
  cluster.RunFor(0.3);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed());
  // Same side as coordinator: COMPLETE arrived.
  EXPECT_EQ(cluster.site(1).Peek("a").value().certain_value(),
            Value::Int(70));
  // Far side: in doubt, polyvalue.
  EXPECT_FALSE(cluster.site(2).Peek("b").value().is_certain());
  cluster.faults().HealLinks();
  cluster.RunFor(2.0);
  EXPECT_EQ(cluster.site(2).Peek("b").value().certain_value(),
            Value::Int(80));
  const Status audit = TraceAuditor::Check(trace.Snapshot());
  EXPECT_TRUE(audit.ok()) << audit.message();
}

TEST(PartitionTest, FlappingPartitionConvergesAfterFinalHeal) {
  VectorTraceSink trace;
  SimCluster::Options options = ClusterOptions();
  options.trace = &trace;
  SimCluster cluster(options);
  for (int s = 0; s < 4; ++s) {
    cluster.Load(s, StrCat("k", s), Value::Int(100));
  }
  Rng rng(99);
  // Random cross-site transfers under a partition that opens and closes
  // every second.
  int submitted = 0;
  std::function<void()> pump = [&] {
    if (cluster.sim().now() > 10.0) {
      return;
    }
    cluster.sim().After(rng.NextExponential(1.0 / 20.0), [&] {
      pump();
      const size_t c = rng.NextBelow(4);
      const size_t f = rng.NextBelow(4);
      size_t t = (f + 1 + rng.NextBelow(3)) % 4;
      ++submitted;
      cluster.Submit(c,
                     Transfer(StrCat("k", f), cluster.site_id(f),
                              StrCat("k", t), cluster.site_id(t),
                              1),
                     [](const TxnResult&) {});
    });
  };
  pump();
  for (double t = 1.0; t < 10.0; t += 2.0) {
    cluster.sim().At(t, [&cluster] {
      cluster.faults().Partition(
          {cluster.site_id(0), cluster.site_id(1)},
          {cluster.site_id(2), cluster.site_id(3)});
    });
    cluster.sim().At(t + 1.0,
                     [&cluster] { cluster.faults().HealLinks(); });
  }
  cluster.RunFor(12.0);
  cluster.faults().HealLinks();
  cluster.RunFor(20.0);
  ASSERT_GT(submitted, 100);
  EXPECT_EQ(cluster.TotalUncertainItems(), 0u);
  int64_t total = 0;
  for (int s = 0; s < 4; ++s) {
    cluster.site(s).store().ForEach(
        [&total](const ItemKey&, const PolyValue& v) {
          ASSERT_TRUE(v.is_certain());
          total += v.certain_value().int_value();
        });
  }
  EXPECT_EQ(total, 400);
  ASSERT_GT(trace.size(), 0u);
  const Status audit = TraceAuditor::Check(trace.Snapshot());
  EXPECT_TRUE(audit.ok()) << audit.message();
}

// --- Paxos Commit under partitions -----------------------------------
//
// The protocol's whole point: a cut that strands the ballot-0 leader
// must not strand the decision. Once the RMs have voted at a majority
// of acceptors, any standby on the majority side can finish the commit.

SimCluster::Options PaxosClusterOptions() {
  SimCluster::Options options = ClusterOptions();
  options.engine.leg = ProtocolLeg::kPaxosCommit;
  options.engine.paxos_failover_timeout = 0.15;
  return options;
}

TEST(PartitionTest, PaxosMajoritySideFinishesAfterLeaderCut) {
  VectorTraceSink trace;
  SimCluster::Options options = PaxosClusterOptions();
  options.trace = &trace;
  SimCluster cluster(options);
  cluster.Load(1, "a", Value::Int(100));
  cluster.Load(2, "b", Value::Int(50));
  std::optional<TxnResult> result;
  const TxnId txn = cluster.Submit(
      0, Transfer("a", cluster.site_id(1), "b", cluster.site_id(2), 30),
      [&result](const TxnResult& r) { result = r; });
  // With the fixed 0.01 delay, both RMs broadcast Phase2a at t=0.03;
  // the acceptors accept at t=0.04 and echo Phase2b back. Cut the
  // leader away at t=0.035 — after the vote broadcasts left the wire
  // (in-flight messages still deliver; the cut blocks sends), before
  // the echoes are sent: votes are durable at a majority, the tally is
  // not.
  cluster.sim().At(0.035, [&cluster] {
    cluster.faults().Partition(
        {cluster.site_id(0)},
        {cluster.site_id(1), cluster.site_id(2), cluster.site_id(3)});
  });
  cluster.RunFor(3.0);

  // The majority side failed over and committed without the leader.
  for (size_t i : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(i);
    const std::optional<bool> outcome = cluster.site(i).DecidedOutcome(txn);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_TRUE(*outcome);
  }
  EXPECT_EQ(cluster.site(1).Peek("a").value().certain_value(),
            Value::Int(70));
  EXPECT_EQ(cluster.site(2).Peek("b").value().certain_value(),
            Value::Int(80));
  // The client, stranded with the leader, has heard nothing yet.
  EXPECT_FALSE(result.has_value());

  // Heal: the leader's escalating recovery ballots reach a decided
  // acceptor, which short-circuits with the outcome; the client finally
  // hears COMMIT — the same decision, never a contradictory one.
  cluster.faults().HealLinks();
  cluster.RunFor(3.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed());
  EXPECT_EQ(cluster.site(0).DecidedOutcome(txn), true);
  const Status audit = TraceAuditor::Check(trace.Snapshot());
  EXPECT_TRUE(audit.ok()) << audit.message();
}

TEST(PartitionTest, PaxosCutBeforeVotesAbortsAndDrainsClean) {
  VectorTraceSink trace;
  SimCluster::Options options = PaxosClusterOptions();
  options.trace = &trace;
  SimCluster cluster(options);
  cluster.Load(1, "a", Value::Int(100));
  cluster.Load(2, "b", Value::Int(50));
  std::optional<TxnResult> result;
  const TxnId txn = cluster.Submit(
      0, Transfer("a", cluster.site_id(1), "b", cluster.site_id(2), 30),
      [&result](const TxnResult& r) { result = r; });
  // Cut at t=0.005: the prepares (sent at t=0) are in flight and still
  // land, but every reply is blocked. No RM ever votes, so the leader
  // times out collecting and the only safe outcome is abort — which
  // must not leave a lock or a prepared record anywhere.
  cluster.sim().At(0.005, [&cluster] {
    cluster.faults().Partition(
        {cluster.site_id(0)},
        {cluster.site_id(1), cluster.site_id(2), cluster.site_id(3)});
  });
  cluster.RunFor(3.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->committed());
  EXPECT_EQ(cluster.site(0).DecidedOutcome(txn), false);
  cluster.faults().HealLinks();
  cluster.RunFor(3.0);
  EXPECT_EQ(cluster.site(1).Peek("a").value().certain_value(),
            Value::Int(100));
  EXPECT_EQ(cluster.site(2).Peek("b").value().certain_value(),
            Value::Int(50));
  for (size_t i = 0; i < cluster.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(cluster.site(i).store().locked_count(), 0u);
  }
  const Status audit = TraceAuditor::Check(trace.Snapshot());
  EXPECT_TRUE(audit.ok()) << audit.message();
}

}  // namespace
}  // namespace polyvalue
