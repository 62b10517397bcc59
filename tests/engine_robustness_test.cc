// Robustness tests: duplicate, stale, reordered and nonsensical protocol
// messages must never corrupt a site. Drives TxnEngine::OnMessage
// directly with hand-built messages.
#include <gtest/gtest.h>

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

SimCluster::Options ClusterOptions(size_t sites) {
  SimCluster::Options options;
  options.site_count = sites;
  options.engine = FastConfig();
  options.min_delay = 0.01;
  options.max_delay = 0.01;
  return options;
}

// A fabricated id that looks like it was coordinated by `site`.
TxnId FakeTxn(uint64_t site, uint64_t seq) {
  return TxnId((site << kTxnSiteShift) | seq);
}

TEST(RobustnessTest, DuplicatePrepareIgnored) {
  SimCluster cluster(ClusterOptions(2));
  cluster.Load(1, "x", Value::Int(5));
  TxnEngine& participant = cluster.site(1).engine();
  const TxnId txn = FakeTxn(1, 900);
  const Message prepare =
      MakePrepare(txn, cluster.site_id(0), {"x"}, {"x"});
  participant.OnMessage(cluster.site_id(0), prepare);
  participant.OnMessage(cluster.site_id(0), prepare);  // duplicate
  // Exactly one lock held for the txn, one PrepareReply queued.
  EXPECT_EQ(cluster.site(1).store().LockHolder("x"), txn);
  cluster.RunFor(2.0);  // compute timeout fires, lock released
  EXPECT_EQ(cluster.site(1).store().locked_count(), 0u);
}

TEST(RobustnessTest, WriteReqWithoutPrepareIgnored) {
  SimCluster cluster(ClusterOptions(2));
  cluster.Load(1, "x", Value::Int(5));
  TxnEngine& participant = cluster.site(1).engine();
  const TxnId txn = FakeTxn(1, 901);
  participant.OnMessage(
      cluster.site_id(0),
      MakeWriteReq(txn, {{"x", PolyValue::Certain(Value::Int(99))}}));
  cluster.RunFor(1.0);
  // Never voted, never installed.
  EXPECT_EQ(cluster.site(1).Peek("x").value().certain_value(),
            Value::Int(5));
}

TEST(RobustnessTest, DuplicateCompleteIsIdempotent) {
  SimCluster cluster(ClusterOptions(2));
  cluster.Load(1, "x", Value::Int(0));
  TxnSpec spec;
  spec.ReadWrite("x", cluster.site_id(1));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["x"] = Value::Int(reads.IntAt("x") + 1);
    return e;
  });
  const auto result = cluster.SubmitAndRun(0, std::move(spec));
  ASSERT_TRUE(result.has_value() && result->committed());
  cluster.RunFor(0.5);
  // Replay COMPLETE for the finished txn several times.
  TxnEngine& participant = cluster.site(1).engine();
  for (int i = 0; i < 3; ++i) {
    participant.OnMessage(cluster.site_id(0), MakeComplete(result->id));
  }
  cluster.RunFor(0.5);
  EXPECT_EQ(cluster.site(1).Peek("x").value().certain_value(),
            Value::Int(1));
}

TEST(RobustnessTest, ConflictingLateOutcomeDoesNotFlip) {
  // After a txn resolved as committed, a (bogus or corrupted) ABORT for
  // the same txn must not undo anything: the first learned outcome wins.
  SimCluster cluster(ClusterOptions(2));
  cluster.Load(1, "x", Value::Int(0));
  TxnSpec spec;
  spec.ReadWrite("x", cluster.site_id(1));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["x"] = Value::Int(reads.IntAt("x") + 1);
    return e;
  });
  const auto result = cluster.SubmitAndRun(0, std::move(spec));
  ASSERT_TRUE(result.has_value() && result->committed());
  cluster.RunFor(0.5);
  cluster.site(1).engine().OnMessage(cluster.site_id(0),
                                     MakeAbort(result->id));
  cluster.RunFor(0.5);
  EXPECT_EQ(cluster.site(1).Peek("x").value().certain_value(),
            Value::Int(1));
}

TEST(RobustnessTest, StaleReadyIgnored) {
  SimCluster cluster(ClusterOptions(2));
  TxnEngine& coordinator = cluster.site(0).engine();
  // READY for a transaction this coordinator never ran.
  coordinator.OnMessage(cluster.site_id(1), MakeReady(FakeTxn(1, 902)));
  cluster.RunFor(0.5);
  EXPECT_EQ(coordinator.metrics().txns_committed, 0u);
}

TEST(RobustnessTest, OutcomeRequestForUnknownTxnAtNonCoordinator) {
  SimCluster cluster(ClusterOptions(3));
  // Ask site 1 about a txn coordinated by site 2 that site 1 never saw:
  // it must answer known=false (only the coordinator may presume abort).
  TxnEngine& bystander = cluster.site(1).engine();
  bystander.OnMessage(cluster.site_id(0),
                      MakeOutcomeRequest(FakeTxn(3, 903)));
  // And the coordinator itself answers presumed-abort for unknown ids.
  TxnEngine& coordinator = cluster.site(2).engine();
  coordinator.OnMessage(cluster.site_id(0),
                        MakeOutcomeRequest(FakeTxn(3, 904)));
  cluster.RunFor(0.5);  // replies flow; nothing crashes
}

TEST(RobustnessTest, OutcomeNotifyForUnknownTxnIsHarmless) {
  SimCluster cluster(ClusterOptions(2));
  cluster.Load(1, "x", Value::Int(5));
  cluster.site(1).engine().OnMessage(cluster.site_id(0),
                                     MakeOutcomeNotify(FakeTxn(1, 905),
                                                       true));
  cluster.RunFor(0.5);
  EXPECT_EQ(cluster.site(1).Peek("x").value().certain_value(),
            Value::Int(5));
}

TEST(RobustnessTest, PrepareReplyFromUninvolvedSiteIgnored) {
  SimCluster cluster(ClusterOptions(3));
  cluster.Load(1, "x", Value::Int(5));
  TxnSpec spec;
  spec.ReadWrite("x", cluster.site_id(1));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["x"] = Value::Int(reads.IntAt("x") + 1);
    return e;
  });
  std::optional<TxnResult> result;
  const TxnId txn = cluster.Submit(
      0, std::move(spec), [&result](const TxnResult& r) { result = r; });
  // A third site injects a bogus PrepareReply with poisoned values.
  cluster.site(0).engine().OnMessage(
      cluster.site_id(2),
      MakePrepareReply(txn, {{"x", PolyValue::Certain(Value::Int(666))}}));
  cluster.RunFor(2.0);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->committed());
  EXPECT_EQ(cluster.site(1).Peek("x").value().certain_value(),
            Value::Int(6));  // 5+1, not 666+1
}

TEST(RobustnessTest, MalformedPacketsDroppedBySite) {
  SimCluster cluster(ClusterOptions(2));
  cluster.Load(1, "x", Value::Int(5));
  // Raw garbage through the transport.
  ASSERT_TRUE(cluster.transport()
                  .Send({cluster.site_id(0), cluster.site_id(1),
                         "\xde\xad\xbe\xef garbage"})
                  .ok());
  cluster.RunFor(0.5);
  EXPECT_EQ(cluster.site(1).Peek("x").value().certain_value(),
            Value::Int(5));
}

TEST(RobustnessTest, MessagesToCrashedSiteVanish) {
  SimCluster cluster(ClusterOptions(2));
  cluster.Load(1, "x", Value::Int(5));
  cluster.site(1).Crash(&cluster.faults());
  cluster.site(1).engine().OnMessage(
      cluster.site_id(0),
      MakePrepare(FakeTxn(1, 906), cluster.site_id(0), {"x"}, {"x"}));
  // Crashed engine ignores direct delivery too.
  EXPECT_EQ(cluster.site(1).store().locked_count(), 0u);
}

// A slow link lets the coordinator's ABORT overtake its own PREPARE:
// site 1 refuses at once (its item is missing), the coordinator aborts,
// and the ABORT reaches site 2 long before the PREPARE does. The late
// PREPARE must take no lock and leave no participation behind (no
// compute watchdog, so no kComputeDiscard later).
TEST(RobustnessTest, PrepareOvertakenByAbortTakesNoLocks) {
  VectorTraceSink trace;
  SimCluster::Options options = ClusterOptions(3);
  options.trace = &trace;
  SimCluster cluster(options);
  cluster.Load(2, "b", Value::Int(50));
  const SiteId site2 = cluster.site_id(2);
  // Only the PREPARE, sent inside Submit, sees the slow link.
  cluster.faults().SetLinkDelayRange(cluster.site_id(0), site2, 0.3, 0.3);
  std::optional<TxnResult> result;
  TxnSpec spec;
  spec.ReadWrite("a", cluster.site_id(1));  // never loaded: refused
  spec.ReadWrite("b", site2);
  spec.Logic([](const TxnReads&) { return TxnEffect(); });
  const TxnId txn = cluster.Submit(
      0, std::move(spec), [&result](const TxnResult& r) { result = r; });
  cluster.faults().ClearLinkDelays();

  cluster.RunFor(0.35);  // the ABORT lands at ~0.03 s, the PREPARE at 0.3 s
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->committed());
  EXPECT_FALSE(cluster.site(2).store().LockHolder("b").has_value());

  cluster.RunFor(2.0);  // past the compute watchdog a served PREPARE arms
  EXPECT_EQ(cluster.site(2).store().locked_count(), 0u);
  bool learned_abort = false;
  bool ignored_prepare = false;
  for (const TraceEvent& e : trace.Snapshot()) {
    if (e.site != site2 || e.txn != txn) {
      continue;
    }
    EXPECT_NE(e.type, TraceEventType::kPrepareRecv);
    EXPECT_NE(e.type, TraceEventType::kComputeDiscard);
    if (e.type == TraceEventType::kOutcomeLearned) {
      EXPECT_FALSE(ignored_prepare) << "PREPARE arrived before the ABORT";
      learned_abort = !e.flag;
    }
    if (e.type == TraceEventType::kMsgIgnored &&
        e.arg == static_cast<uint64_t>(MsgType::kPrepare)) {
      ignored_prepare = true;
    }
  }
  EXPECT_TRUE(learned_abort);
  EXPECT_TRUE(ignored_prepare);
  EXPECT_TRUE(TraceAuditor::Check(trace.Snapshot()).ok());
}

}  // namespace
}  // namespace polyvalue
