// Protocol trace: structured events for every transaction lifecycle
// transition, emitted by the engine, the sites, and the simulated
// transport.
//
// The §4 model is validated entirely by counting invisible state
// transitions over time — in-doubt entry/exit, polyvalue install and
// reduction, outcome propagation. A TraceSink makes those transitions
// first-class: every run can record its own event stream, and the
// TraceAuditor (audit.h) replays the stream against the protocol's
// invariants, turning any randomized schedule into a protocol test.
//
// Cost contract: tracing must be free when no sink is attached. Every
// emission point is guarded by a single null-pointer check before any
// event is constructed; perfbench's `trace.overhead` row (traced over
// untraced goodput) verifies the no-sink path shows no measurable
// regression.
//
// Event ordering: on the deterministic simulator, events are appended in
// execution order, which is causal order — the auditor relies on the
// sequence, not on timestamps (events at the same virtual time keep
// their emission order). On the threaded runtime the sink is
// thread-safe but cross-site ordering is best-effort; audit sim traces.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/thread_annotations.h"

namespace polyvalue {

// Every observable lifecycle transition. Grouped by emitter:
// coordinator, participant, shared outcome machinery, site lifecycle,
// transport.
enum class TraceEventType : uint8_t {
  // -- coordinator --
  kSubmit = 1,        // transaction accepted at its coordinator
  kLocalFastPath,     // single-site txn ran without message rounds
  kWriteShipped,      // computed writes fanned out (arg = participants)
  kAlternativeFork,   // polytransaction forked (arg = alternatives run)
  kDecisionCommit,    // coordinator durably decided COMMIT
  kDecisionAbort,     // coordinator decided ABORT (flag unused)
  kReadOnlyDone,      // terminal read-only disposition (no atomic update)
  // -- participant (Figure 1) --
  kPrepareRecv,       // idle -> compute: locks acquired or queued
  kPrepareRefused,    // prepare refused (lock conflict / missing item)
  kReadySent,         // compute -> wait: READY voted, writes durable
  kWaitTimeout,       // in-doubt window expired; policy applies next
  kBlockedHold,       // kBlock policy: locks held past the timeout
  kArbitraryCommit,   // kArbitrary policy: unilateral commit
  // -- items --
  kPolyInstall,       // an item transitioned certain -> uncertain
  kPolyReduce,        // an item transitioned uncertain -> certain
  // -- outcome propagation (§3.3) --
  kOutcomeInquiry,    // pull: OUTCOME_REQUEST sent (arg = coordinator)
  kOutcomeLearned,    // this site learned txn's outcome (flag = commit)
  kOutcomeNotify,     // push: OUTCOME_NOTIFY sent (arg = target site)
  // -- site lifecycle --
  kCrash,             // site lost volatile state
  kRecover,           // site back up; in-doubt policy re-applied
  kWalReplay,         // durable state rebuilt from the log (arg = records)
  kCheckpoint,        // snapshot written, WAL truncated
  // -- transport --
  kMsgDropped,        // packet lost (site = sender, peer = target)
  kMsgDelivered,      // packet handed to a live site (site = receiver)
  // -- handler return paths --
  // Added so EVERY engine message-handler return path emits an event
  // (tools/polyverify rule TR01); appended after the original kinds so
  // recorded streams keep their numbering.
  kPrepareReplied,    // participant answered PREPARE (flag = accepted)
  kVoteCollected,     // coordinator absorbed one vote; others pending
  kOutcomeReplied,    // coordinator answered OUTCOME_REQUEST (flag = known)
  kMsgIgnored,        // stale/duplicate message discarded (arg = MsgType)
  kComputeDiscard,    // compute result discarded: txn already resolved
  kUncertainRelease,  // kPolyvalue policy: locks freed, values uncertain
  // -- serving front door (src/svc/) --
  // Emitted by the admission/deadline layer in FRONT of the sites, with
  // `site` naming the coordinator the request was aimed at. The auditor
  // exempts them from A5 (crash silence): the serving layer keeps
  // running — and keeps shedding — while the site behind it is down.
  kSvcAdmitted,       // request admitted (arg = in-flight count after)
  kSvcShed,           // admission refused (flag: true = rate, false = cap)
  kSvcDeadlineExceeded,  // deadline budget ran out (arg = attempts made)
  kSvcRetry,          // retry scheduled after an abort (arg = attempt #)
  // -- Paxos Commit leg (src/paxos/) --
  // One consensus instance per participant RM; `peer` carries the
  // instance owner (the RM) where noted, `arg` carries the ballot.
  kPaxosVote,         // RM broadcast Phase2a(ballot 0) (flag = prepared)
  kPaxosAccept,       // acceptor accepted a Phase2a (peer = rm,
                      //   arg = ballot, flag = prepared)
  kPaxosPromise,      // acceptor promised a Phase1a ballot (arg = ballot)
  kPaxosChosen,       // leader saw a majority for one instance (peer = rm,
                      //   arg = ballot, flag = prepared)
  kPaxosDecide,       // a leader fixed the global outcome (flag = commit);
                      //   may fire at several sites, values must agree
  kPaxosFailover,     // RM nudged a standby leader (peer = standby,
                      //   arg = attempt #)
  kPaxosRecoveryBallot,  // standby started Phase1a (arg = ballot)
  // -- partial replication (src/replica/) --
  // Emitted by the replica routing/auditing layer ABOVE the sites (the
  // read router, the consistency sweep, the repair tool, the workload
  // harness), never by the engines — so the engine state machines and
  // their extracted sm_*.json specs are untouched. Like the svc_*
  // events they are exempt from A5: the routing layer keeps running
  // (and keeps failing over) while a site behind it is down. `key`
  // always carries the LOGICAL item name, not a per-site copy key.
  // Digests are FNV-1a over Value::ToString and never 0 (0 means
  // "no certain value" in a sweep).
  kReplicaWrite,      // committed write announced (arg = value digest);
                      //   also emitted for initial loads and repairs
  kReplicaRead,       // router served a read (site = serving replica,
                      //   arg = digest, flag = value was certain)
  kReplicaFailover,   // router abandoned a copy (site = abandoned,
                      //   peer = next tried, arg = attempt #)
  kReplicaSetInfo,    // consistency sweep opened (arg = copy count)
  kReplicaDigest,     // one copy's digest in a sweep (site = copy's
                      //   site, arg = digest, 0 = missing/uncertain)
  kReplicaRepair,     // repair tool rewrote a copy (site = copy's site,
                      //   arg = digest written)
};

const char* TraceEventTypeName(TraceEventType type);

// One observed transition. Fields beyond (time, type, site) are
// populated only where meaningful; see the enum comments.
struct TraceEvent {
  double time = 0;                 // virtual (sim) or wall-clock seconds
  TraceEventType type = TraceEventType::kSubmit;
  SiteId site;                     // the site the event happened at
  TxnId txn;                       // transaction scope, when any
  ItemKey key;                     // item scope, when any
  SiteId peer;                     // message events: the other endpoint
  bool flag = false;               // outcome flag (true = committed)
  uint64_t arg = 0;                // counts (alternatives, bytes, sites)

  std::string ToString() const;
};

// Receives every event from the components it is attached to. Emit may
// be called from simulator steps or from transport/scheduler threads;
// implementations must be thread-safe.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const TraceEvent& event) = 0;
};

// Records events in order for later audit or golden comparison.
class VectorTraceSink : public TraceSink {
 public:
  void Emit(const TraceEvent& event) override {
    MutexLock lock(&mu_);
    events_.push_back(event);
  }

  size_t size() const {
    MutexLock lock(&mu_);
    return events_.size();
  }

  // Copies the events recorded so far.
  std::vector<TraceEvent> Snapshot() const {
    MutexLock lock(&mu_);
    return events_;
  }

  void Clear() {
    MutexLock lock(&mu_);
    events_.clear();
  }

 private:
  mutable Mutex mu_ POLYV_MUTEX_RANK(kTrace);
  std::vector<TraceEvent> events_ GUARDED_BY(mu_);
};

// Counts events without storing them — the cheapest live sink; used by
// benches to measure tracing overhead with emission still active.
class CountingTraceSink : public TraceSink {
 public:
  void Emit(const TraceEvent&) override {
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
};

}  // namespace polyvalue

#endif  // SRC_OBS_TRACE_H_
