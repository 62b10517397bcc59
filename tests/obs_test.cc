// Unit tests for the observability layer: MetricsRegistry JSON export
// (escaping, empty registry, merge semantics) and the
// TraceAuditor's rejection of hand-built illegal traces — the negative
// side of the invariant checks the chaos suite exercises positively.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/audit.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace polyvalue {
namespace {

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, EmptyRegistryJson) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.ToJson(),
            "{\"counters\": {}, \"gauges\": {}, \"stats\": {}}");
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_FALSE(registry.Has("anything"));
  EXPECT_EQ(registry.counter("anything"), 0u);
}

TEST(MetricsRegistryTest, CountersAndGauges) {
  MetricsRegistry registry;
  registry.Counter("a");
  registry.Counter("a", 4);
  registry.SetCounter("b", 7);
  registry.Gauge("g", 1.5);
  EXPECT_EQ(registry.counter("a"), 5u);
  EXPECT_EQ(registry.counter("b"), 7u);
  EXPECT_DOUBLE_EQ(registry.gauge("g"), 1.5);
  EXPECT_TRUE(registry.Has("a"));
  EXPECT_TRUE(registry.Has("g"));
  EXPECT_EQ(registry.ToJson(),
            "{\"counters\": {\"a\": 5, \"b\": 7}, \"gauges\": {\"g\": 1.5}, "
            "\"stats\": {}}");
}

TEST(MetricsRegistryTest, EscapeJson) {
  EXPECT_EQ(MetricsRegistry::EscapeJson("plain"), "plain");
  EXPECT_EQ(MetricsRegistry::EscapeJson("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(MetricsRegistry::EscapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(MetricsRegistry::EscapeJson("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(MetricsRegistry::EscapeJson("tab\there"), "tab\\there");
  EXPECT_EQ(MetricsRegistry::EscapeJson("cr\rhere"), "cr\\rhere");
  EXPECT_EQ(MetricsRegistry::EscapeJson(std::string("nul\x01")),
            "nul\\u0001");
}

TEST(MetricsRegistryTest, EscapedKeysInJsonOutput) {
  MetricsRegistry registry;
  registry.SetCounter("weird \"key\"\n", 1);
  EXPECT_EQ(registry.ToJson(),
            "{\"counters\": {\"weird \\\"key\\\"\\n\": 1}, \"gauges\": {}, "
            "\"stats\": {}}");
}

TEST(MetricsRegistryTest, StatsJson) {
  MetricsRegistry registry;
  RunningStat* stat = registry.Stat("latency");
  stat->Add(1.0);
  stat->Add(3.0);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"latency\": {\"count\": 2, \"mean\": 2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"min\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum\": 4"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, MergeSemantics) {
  MetricsRegistry a;
  a.SetCounter("c", 2);
  a.Gauge("g", 1.0);
  a.Stat("s")->Add(1.0);

  MetricsRegistry b;
  b.SetCounter("c", 3);
  b.Gauge("g", 9.0);
  b.Stat("s")->Add(3.0);
  b.SetCounter("only_b", 1);

  a.Merge(b);
  EXPECT_EQ(a.counter("c"), 5u);           // counters add
  EXPECT_DOUBLE_EQ(a.gauge("g"), 9.0);     // gauges overwrite
  EXPECT_EQ(a.Stat("s")->count(), 2u);     // stats merge
  EXPECT_DOUBLE_EQ(a.Stat("s")->mean(), 2.0);
  EXPECT_EQ(a.counter("only_b"), 1u);
}

TEST(MetricsRegistryTest, WriteJsonFileRoundTrip) {
  MetricsRegistry registry;
  registry.SetCounter("x", 42);
  const std::string path =
      ::testing::TempDir() + "/metrics_registry_test.json";
  ASSERT_TRUE(registry.WriteJsonFile(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), registry.ToJson());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// TraceAuditor negatives: hand-built illegal traces must be rejected.
// ---------------------------------------------------------------------

TraceEvent Ev(TraceEventType type, uint64_t site, uint64_t txn = 0) {
  TraceEvent e;
  e.type = type;
  e.site = SiteId(site);
  e.txn = TxnId(txn);
  return e;
}

TraceEvent EvKey(TraceEventType type, uint64_t site, const ItemKey& key,
                 uint64_t txn = 0) {
  TraceEvent e = Ev(type, site, txn);
  e.key = key;
  return e;
}

TraceEvent EvFlag(TraceEventType type, uint64_t site, uint64_t txn,
                  bool flag) {
  TraceEvent e = Ev(type, site, txn);
  e.flag = flag;
  return e;
}

TEST(TraceAuditorTest, AcceptsLegalHappyPath) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kSubmit, 1, 100),
      Ev(TraceEventType::kPrepareRecv, 2, 100),
      Ev(TraceEventType::kReadySent, 2, 100),
      Ev(TraceEventType::kDecisionCommit, 1, 100),
      EvFlag(TraceEventType::kOutcomeLearned, 2, 100, true),
  };
  EXPECT_TRUE(TraceAuditor::Check(trace).ok());
  EXPECT_TRUE(TraceAuditor().Audit(trace).empty());
}

TEST(TraceAuditorTest, RejectsCommitAfterAbort) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kSubmit, 1, 100),
      Ev(TraceEventType::kDecisionAbort, 1, 100),
      Ev(TraceEventType::kDecisionCommit, 1, 100),
  };
  const auto violations = TraceAuditor().Audit(trace);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().event_index, 2u);
  EXPECT_NE(violations.front().message.find("second terminal decision"),
            std::string::npos);
  EXPECT_FALSE(TraceAuditor::Check(trace).ok());
}

TEST(TraceAuditorTest, RejectsDoubleCommit) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kSubmit, 1, 100),
      Ev(TraceEventType::kDecisionCommit, 1, 100),
      Ev(TraceEventType::kDecisionCommit, 1, 100),
  };
  EXPECT_FALSE(TraceAuditor::Check(trace).ok());
}

TEST(TraceAuditorTest, RejectsEventFromCrashedSite) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kCrash, 2),
      Ev(TraceEventType::kSubmit, 2, 200),
      Ev(TraceEventType::kDecisionCommit, 2, 200),
  };
  const auto violations = TraceAuditor().Audit(trace);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().message.find("crashed site"),
            std::string::npos);
  // After recovery the same events are legal (the submit also terminates).
  const std::vector<TraceEvent> healed = {
      Ev(TraceEventType::kCrash, 2),
      Ev(TraceEventType::kRecover, 2),
      Ev(TraceEventType::kSubmit, 2, 200),
      Ev(TraceEventType::kDecisionCommit, 2, 200),
  };
  EXPECT_TRUE(TraceAuditor::Check(healed).ok());
}

TEST(TraceAuditorTest, DropsAreExemptFromCrashSilence) {
  // A packet in flight when the receiver crashed is recorded as dropped;
  // that bookkeeping is not activity of the down site.
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kCrash, 2),
      Ev(TraceEventType::kMsgDropped, 2),
      Ev(TraceEventType::kRecover, 2),
  };
  EXPECT_TRUE(TraceAuditor::Check(trace).ok());
}

TEST(TraceAuditorTest, RejectsContradictoryLearnedOutcomes) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kSubmit, 1, 100),
      Ev(TraceEventType::kDecisionCommit, 1, 100),
      EvFlag(TraceEventType::kOutcomeLearned, 2, 100, true),
      EvFlag(TraceEventType::kOutcomeLearned, 3, 100, false),
  };
  const auto violations = TraceAuditor().Audit(trace);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().message.find("contradicting"),
            std::string::npos);
}

TEST(TraceAuditorTest, RejectsLearnedCommitWithoutDecision) {
  // A3: "committed" cannot be learned before the coordinator decided.
  // (Learned aborts are fine: presumed abort manufactures them.)
  const std::vector<TraceEvent> bad = {
      Ev(TraceEventType::kSubmit, 1, 100),
      EvFlag(TraceEventType::kOutcomeLearned, 2, 100, true),
  };
  EXPECT_FALSE(TraceAuditor::Check(bad, {.expect_quiescent = false}).ok());
  const std::vector<TraceEvent> presumed_abort = {
      EvFlag(TraceEventType::kOutcomeLearned, 2, 100, false),
  };
  EXPECT_TRUE(TraceAuditor::Check(presumed_abort).ok());
}

TEST(TraceAuditorTest, RejectsNotifyWithoutKnowledge) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kSubmit, 1, 100),
      Ev(TraceEventType::kDecisionCommit, 1, 100),
      EvFlag(TraceEventType::kOutcomeNotify, 2, 100, true),
  };
  const auto violations = TraceAuditor().Audit(trace);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().message.find("without having learned"),
            std::string::npos);
}

TEST(TraceAuditorTest, RejectsInDoubtWindowWithoutVote) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kSubmit, 1, 100),
      Ev(TraceEventType::kWaitTimeout, 2, 100),
      Ev(TraceEventType::kDecisionAbort, 1, 100),
  };
  const auto violations = TraceAuditor().Audit(trace);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().message.find("without a prior READY"),
            std::string::npos);
}

TEST(TraceAuditorTest, QuiescentTraceMustDrainUncertainty) {
  const std::vector<TraceEvent> open = {
      EvKey(TraceEventType::kPolyInstall, 2, "acct/a", 100),
  };
  EXPECT_FALSE(TraceAuditor::Check(open).ok());
  // The same trace is fine when the run is not expected to quiesce.
  EXPECT_TRUE(TraceAuditor::Check(open, {.expect_quiescent = false}).ok());
  // And fine once reduced.
  const std::vector<TraceEvent> drained = {
      EvKey(TraceEventType::kPolyInstall, 2, "acct/a", 100),
      EvKey(TraceEventType::kPolyReduce, 2, "acct/a", 100),
  };
  EXPECT_TRUE(TraceAuditor::Check(drained).ok());
}

TEST(TraceAuditorTest, RejectsReduceWithoutInstall) {
  const std::vector<TraceEvent> trace = {
      EvKey(TraceEventType::kPolyReduce, 2, "acct/a", 100),
  };
  EXPECT_FALSE(TraceAuditor::Check(trace).ok());
}

TEST(TraceAuditorTest, QuiescentTraceMustTerminateSubmits) {
  const std::vector<TraceEvent> dangling = {
      Ev(TraceEventType::kSubmit, 1, 100),
  };
  EXPECT_FALSE(TraceAuditor::Check(dangling).ok());
  EXPECT_TRUE(
      TraceAuditor::Check(dangling, {.expect_quiescent = false}).ok());
  // A coordinator crash after the submit legitimately orphans the client.
  const std::vector<TraceEvent> orphaned = {
      Ev(TraceEventType::kSubmit, 1, 100),
      Ev(TraceEventType::kCrash, 1),
      Ev(TraceEventType::kRecover, 1),
  };
  EXPECT_TRUE(TraceAuditor::Check(orphaned).ok());
}

TEST(TraceAuditorTest, ViolationMessagesNameTheEvent) {
  const std::vector<TraceEvent> trace = {
      Ev(TraceEventType::kSubmit, 1, 100),
      Ev(TraceEventType::kDecisionAbort, 1, 100),
      Ev(TraceEventType::kDecisionCommit, 1, 100),
  };
  const Status status = TraceAuditor::Check(trace);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("event[2]"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace polyvalue
