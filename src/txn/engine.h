// The transaction engine: coordinator + participant roles of one site.
//
// One TxnEngine instance runs per site. It implements:
//
//   * the coordinator role — drives the two-phase protocol for
//     transactions submitted at this site: collect reads (compute phase),
//     execute the (poly)transaction, ship writes, gather READY votes,
//     decide, distribute COMPLETE/ABORT, answer outcome inquiries
//     (with presumed-abort for transactions it has no record of);
//   * the participant role — Figure 1's state machine: idle → compute
//     (on PREPARE: lock + read) → wait (on WRITE_REQ: vote READY) →
//     idle, where leaving `wait` happens on COMPLETE, on ABORT, or on
//     the wait timeout, which applies the configured in-doubt policy;
//   * outcome propagation (§3.3) — learned outcomes reduce dependent
//     local polyvalues, are pushed to recorded downstream sites, and a
//     periodic inquiry loop pulls outcomes of still-unknown transactions
//     from their coordinators (the transaction id encodes its
//     coordinator, so any site can route an inquiry).
//
// The in-doubt policy is where the paper's contribution and its two foils
// live side by side:
//
//   kPolyvalue  — §2.4/§3: install {⟨computed, T⟩, ⟨previous, ¬T⟩}
//                 polyvalues, RELEASE the locks, move on.
//   kBlock      — §2.2 classic blocking 2PC: hold the locks until the
//                 outcome is learned.
//   kArbitrary  — §2.3 relaxed consistency: unilaterally commit; fast
//                 but can violate atomicity (the benches count it).
//
// Thread-safety: one mutex guards protocol state (coordinations,
// participations, durable tables); all outbound sends, timer programs
// and client callbacks are deferred to after unlock, so the engine never
// calls out while holding its lock. Hot-path work that doesn't need the
// protocol state stays off that mutex: txn-id allocation is a lone
// atomic, item data lives in the ItemStore's own sharded locks, and WAL
// group-commit fsyncs happen at the FlushOutbox barrier — after unlock.
// The same object is driven by the deterministic simulator and by real
// threads.
//
// Durability rule: the deferred effects of one locked section wait only
// for the WAL records they depend on — the records the section appended
// and the records that wrote the item values it read (each item carries
// the LSN of its last logged write). Effects that report outcome
// knowledge (inquiry answers, outcome pushes, §3.4 subscriptions,
// recovery) wait for the whole log. A record nothing depends on yet,
// such as a participant's installs after COMPLETE, stays buffered until
// a later flush carries it; if a crash loses it, recovery rebuilds the
// same state from the forced kPrepared record and an inquiry answered
// from the coordinator's forced decision.
//
// Locks: PREPARE and the local fast path lock keys they only read in
// shared mode and keys they write in exclusive mode.
#ifndef SRC_TXN_ENGINE_H_
#define SRC_TXN_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/item_store.h"
#include "src/store/outcome_table.h"
#include "src/store/snapshot.h"
#include "src/store/wal.h"
#include "src/txn/messages.h"
#include "src/txn/polytxn.h"
#include "src/txn/scheduler.h"
#include "src/txn/txn_types.h"

namespace polyvalue {

enum class InDoubtPolicy {
  kPolyvalue,  // install polyvalues, release locks (the paper)
  kBlock,      // hold locks until the outcome is known (classic 2PC)
  kArbitrary,  // unilaterally commit (relaxed consistency, §2.3)
};

const char* InDoubtPolicyName(InDoubtPolicy policy);

// Which commit protocol a site runs. All legs share the transports,
// stores, scheduler, trace taxonomy and workload generators; cluster
// assemblies pick one leg for the whole (homogeneous) cluster.
enum class ProtocolLeg {
  kTwoPhase,     // coordinator-driven 2PC + the in-doubt policy above
  kPaxosCommit,  // Gray-Lamport Paxos Commit: the decision is chosen by
                 // one Paxos instance per participant RM, so a crashed
                 // coordinator never strands prepared participants
};

const char* ProtocolLegName(ProtocolLeg leg);

// How a participant treats a lock conflict during PREPARE.
enum class LockWaitPolicy {
  kNoWait,   // immediate refusal (deadlock-free by construction)
  kWaitDie,  // older requesters queue behind younger holders; younger
             // requesters die. Waits only point old -> young, so no
             // cycles — deadlock-free with far fewer aborts under
             // contention.
};

struct EngineConfig {
  // Coordinator: max wait for all PREPARE_REPLYs before aborting.
  double prepare_timeout = 0.25;
  // Coordinator: max wait for all READYs before aborting.
  double ready_timeout = 0.25;
  // Participant: in-doubt window after READY before the policy applies.
  double wait_timeout = 0.15;
  // Participant: period of outcome-inquiry retries.
  double inquiry_interval = 1.0;
  // Cap on polytransaction fan-out.
  size_t max_alternatives = 1024;
  // In-doubt behaviour.
  InDoubtPolicy policy = InDoubtPolicy::kPolyvalue;
  // Lock-conflict behaviour during PREPARE.
  LockWaitPolicy lock_wait = LockWaitPolicy::kNoWait;
  // Debug: exact complete/disjoint validation of every installed
  // polyvalue (expensive; on in tests).
  bool validate_installs = false;
  // Simulated computation time: the coordinator defers executing the
  // transaction logic and shipping writes by this many (virtual) seconds
  // after the last PREPARE_REPLY. Models the paper's premise that the
  // compute phase dwarfs the decision exchange; 0 = execute immediately.
  double execution_delay = 0;
  // Single-site transactions (every item local to the coordinator) skip
  // the message rounds entirely: lock, execute, install, decide — the
  // §2.1 observation that such transactions need no distributed atomic
  // update. Disable to force every transaction through full 2PC.
  bool enable_local_fast_path = true;
  // --- protocol leg selection ---
  ProtocolLeg leg = ProtocolLeg::kTwoPhase;
  // Paxos leg: total number of sites in the cluster. Every site is an
  // acceptor (2F+1 acceptors tolerate F failures; majority = N/2 + 1).
  // Cluster assemblies fill this in; it must be >= 1 for the Paxos leg.
  size_t cluster_sites = 0;
  // Paxos leg: how long an RM waits for the decision after voting before
  // nudging the next standby leader — the Paxos analogue of the in-doubt
  // window dial (bench_indoubt_window sweeps it three-way).
  double paxos_failover_timeout = 0.3;
};

struct EngineMetrics {
  uint64_t txns_submitted = 0;
  uint64_t txns_committed = 0;   // coordinator-side decisions
  uint64_t txns_aborted = 0;
  uint64_t txns_read_only = 0;
  uint64_t polytxns = 0;              // executions that read >=1 polyvalue
  uint64_t alternatives_executed = 0;
  uint64_t uncertain_outputs = 0;     // client outputs left uncertain
  uint64_t polyvalue_installs = 0;    // items made uncertain by timeouts
  uint64_t polyvalues_resolved = 0;   // items reduced back to certain
  uint64_t wait_timeouts = 0;         // in-doubt windows hit
  uint64_t blocked_holds = 0;         // blocking policy: lock-hold episodes
  uint64_t arbitrary_commits = 0;     // relaxed policy: unilateral commits
  uint64_t outcome_inquiries = 0;
  uint64_t outcome_notifies = 0;
  uint64_t local_fast_path = 0;       // single-site txns run without 2PC
  uint64_t lock_waits = 0;            // wait-die: prepares that queued
  uint64_t lock_wait_resumes = 0;     // parked prepares later granted

  // Paxos Commit leg (src/paxos/): zero on the 2PC legs.
  uint64_t paxos_votes = 0;             // RM Phase2a(ballot 0) broadcasts
  uint64_t paxos_accepts = 0;           // acceptor-side accepted values
  uint64_t paxos_failovers = 0;         // standby-leader nudges sent
  uint64_t paxos_recovery_ballots = 0;  // Phase1a rounds started

  // Phase-duration instrumentation (§2.2: the vulnerable window should
  // be short relative to the computation): per-participation seconds
  // spent in the compute phase (PREPARE -> WRITE_REQ) and in the wait
  // phase (READY -> outcome learned / policy applied).
  double compute_phase_seconds = 0;
  uint64_t compute_phase_count = 0;
  double wait_phase_seconds = 0;
  uint64_t wait_phase_count = 0;
  // Longest single wait phase: the worst in-doubt exposure any one
  // participant suffered. Under blocking 2PC this grows with the
  // outage; under Paxos Commit it is bounded by the failover timeout.
  double wait_phase_max = 0;

  // Adds `other` field-by-field (cluster-wide aggregation).
  void Accumulate(const EngineMetrics& other);

  // Writes every field into `registry` under `prefix` — totals as
  // counters, phase durations as gauges (machine-readable export).
  void ExportTo(MetricsRegistry* registry, const std::string& prefix) const;
};

// The commit-protocol seam: everything a Site needs from whichever
// protocol leg it runs. TxnEngine (2PC + in-doubt policies) and
// PaxosEngine (src/paxos/) both implement it; Site routes Submit and
// incoming packets through a CommitProtocol*, so the cluster
// assemblies, workload generators and benches are leg-agnostic.
class CommitProtocol {
 public:
  virtual ~CommitProtocol() = default;
  // Runs `spec` with this site as coordinator; the callback fires
  // exactly once (possibly much later, after failures heal).
  virtual TxnId Submit(TxnSpec spec, TxnCallback callback) = 0;
  // Transport entry point.
  virtual void OnMessage(SiteId from, const Message& msg) = 0;
  // Failure simulation hooks: drop volatile state / restart.
  virtual void Crash() = 0;
  virtual void Recover() = 0;
  virtual EngineMetrics metrics() const = 0;
  // Durable local decision for `txn`, if this site fixed or learned one.
  virtual std::optional<bool> DecidedOutcome(TxnId txn) const = 0;
};

class TxnEngine : public CommitProtocol {
 public:
  using SendFn = std::function<void(SiteId to, const Message& msg)>;

  TxnEngine(SiteId self, ItemStore* items, OutcomeTable* outcomes,
            Scheduler* scheduler, SendFn send, EngineConfig config);
  ~TxnEngine() override;

  // Optional durability: every install / outcome / tracking mutation is
  // logged. The engine does not own the WAL.
  void AttachWal(Wal* wal) { wal_ = wal; }

  // Optional observability: every lifecycle transition is emitted to
  // `sink` (src/obs/trace.h). Attach before traffic; the engine does not
  // own the sink. With no sink attached every emission point is a single
  // null-pointer check (verified free by perfbench's `trace.overhead`).
  void AttachTrace(TraceSink* sink) {
    MutexLock lock(&mu_);
    trace_ = sink;
  }

  SiteId self() const { return self_; }
  const EngineConfig& config() const { return config_; }

  // --- transaction ids ---
  // Ids encode their coordinator: id = (site << kSiteShift) | seq, so any
  // holder of a polyvalue can route an outcome inquiry.
  TxnId AllocateTxnId();
  static SiteId CoordinatorOf(TxnId txn);

  // Ensures future AllocateTxnId calls return ids above `max_seq` (used
  // when recovery replays ids this site already handed out).
  void RaiseSeqFloor(uint64_t max_seq);

  // --- client API (coordinator role) ---
  // Runs `spec` with this site as coordinator. The callback fires exactly
  // once, possibly synchronously (local-only read) or much later (after
  // failures heal). Pass a pre-allocated id via `txn` to correlate.
  TxnId Submit(TxnSpec spec, TxnCallback callback) override;
  TxnId Submit(TxnSpec spec, TxnCallback callback, TxnId txn);

  // --- transport entry point ---
  void OnMessage(SiteId from, const Message& msg) override;

  // --- failure simulation hooks ---
  // Drops all volatile state: in-flight coordinations (their clients
  // never hear back until recovery-time inquiry), participations, locks,
  // timers. Durable state — items, outcome table, decided outcomes,
  // prepared writes — survives (it is WAL-backed when a WAL is attached).
  void Crash() override;
  // Post-crash restart: re-applies the in-doubt policy to prepared-but-
  // undecided participations and restarts outcome inquiries.
  void Recover() override;

  // Starts the periodic inquiry loop (idempotent). Called by Recover()
  // and by the first polyvalue install; exposed for tests.
  void EnsureInquiryLoop();

  // §3.4 support: invokes `callback(committed)` once the outcome of
  // `txn` is known at this site — immediately if already known. This is
  // the "withhold uncertain outputs until the uncertainty is resolved"
  // option: callers park an uncertain client answer on the transactions
  // it depends on. Subscriptions are volatile (lost on Crash).
  using OutcomeCallback = std::function<void(bool committed)>;
  void SubscribeOutcome(TxnId txn, OutcomeCallback callback);

  EngineMetrics metrics() const override;

  // Durable coordinator decision, if any (tests / audits).
  std::optional<bool> DecidedOutcome(TxnId txn) const override;

  // Rebuilds durable engine state from replayed WAL records. Call before
  // any traffic, after store/outcome-table recovery.
  void RestoreDurableState(const std::vector<WalRecord>& records);

  // Snapshot integration: exports / imports the engine's durable state
  // (prepared votes + coordinator decisions). Import must precede any
  // traffic; WAL-tail RestoreDurableState may follow it.
  void ExportDurableState(SiteSnapshot* snapshot) const;
  void ImportDurableState(const SiteSnapshot& snapshot);

 private:
  // ---- coordinator state ----
  enum class CoordPhase { kCollecting, kWaitingReady };
  struct Coordination {
    TxnSpec spec;
    CoordPhase phase = CoordPhase::kCollecting;
    std::vector<SiteId> participants;
    std::set<SiteId> awaiting;
    std::map<ItemKey, PolyValue> collected;  // reads ∪ previous values
    TxnCallback callback;
    Scheduler::TimerId timer = 0;
    PolyValue output;
    bool was_polytxn = false;
  };

  // ---- participant state (Figure 1; idle = absent) ----
  enum class PartState { kCompute, kWait };
  struct Participation {
    SiteId coordinator;
    PartState state = PartState::kCompute;
    std::vector<ItemKey> locked_keys;
    std::map<ItemKey, PolyValue> pending_writes;
    Scheduler::TimerId wait_timer = 0;
    bool blocked = false;  // kBlock policy: held past the timeout
    double compute_entered_at = 0;  // phase instrumentation (§2.2)
    double wait_entered_at = 0;
    // Wait-die parking: keys still queued for, the original PREPARE to
    // resume with, and whether the PREPARE_REPLY has been sent yet.
    std::set<ItemKey> awaited_keys;
    Message parked_prepare;
    bool prepare_replied = false;
  };

  // Deferred side effects, flushed outside the lock.
  struct Outbox {
    std::vector<std::pair<SiteId, Message>> sends;
    std::vector<std::function<void()>> thunks;
    // Highest WAL LSN the effects depend on; FlushOutbox makes the log
    // durable up to here first. 0 = no dependency.
    uint64_t wal_target = 0;
    void DependOn(uint64_t lsn) { wal_target = std::max(wal_target, lsn); }
  };
  // Outbox target for effects that report outcome knowledge.
  static constexpr uint64_t kWholeLog = ~uint64_t{0};

  // -- coordinator internals (engine_coordinator.cc) --
  // Every private handler below runs with mu_ held: public entry points
  // (OnMessage, Submit, timer callbacks) take the lock once, dispatch,
  // and defer all side effects into the Outbox, flushed after unlock.
  // The locked body of Submit. Every path — crashed coordinator, local
  // fast path, empty participant set, the full prepare fan-out —
  // returns with its side effects parked in `out`, so Submit flushes
  // exactly once, after mu_ is released. (An earlier version flushed
  // inside the lock on the early-return paths, running client
  // callbacks and the group-commit fsync under mu_; lockdep caught it
  // as a kEngine -> kClientWait rank inversion.)
  void SubmitUnderLock(TxnSpec spec, TxnCallback callback, TxnId txn,
                       Outbox* out) EXCLUDES(mu_);
  // Runs a transaction whose every item lives at this site without any
  // message rounds. Returns false when the fast path does not apply.
  bool TryLocalFastPath(TxnId txn, const TxnSpec& spec,
                        const TxnCallback& callback, Outbox* out)
      REQUIRES(mu_);
  void HandlePrepareReply(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  void HandleReady(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  void ExecuteAndShip(TxnId txn, Coordination* coord, Outbox* out)
      REQUIRES(mu_);
  void Decide(TxnId txn, bool commit, const std::string& reason,
              Outbox* out) REQUIRES(mu_);
  void HandleOutcomeRequest(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  void CoordinatorTimeout(TxnId txn, CoordPhase expected_phase);

  // -- participant internals (engine_participant.cc) --
  void HandlePrepare(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  // Tail of the prepare path once every lock is held: read values,
  // record §3.3 shipping obligations, send PREPARE_REPLY.
  void FinishPrepareReads(TxnId txn, Participation* part, Outbox* out)
      REQUIRES(mu_);
  // Releases txn's locks, waking and resuming parked prepares that the
  // freed items were granted to.
  void ReleaseLocks(TxnId txn, Outbox* out) REQUIRES(mu_);
  void HandleWriteReq(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  void HandleComplete(const Message& msg, Outbox* out) REQUIRES(mu_);
  void HandleAbort(const Message& msg, Outbox* out) REQUIRES(mu_);
  void WaitTimeout(TxnId txn);
  void ApplyInDoubtPolicy(TxnId txn, Participation* part, Outbox* out)
      REQUIRES(mu_);
  void FinishParticipation(TxnId txn, Participation* part, bool commit,
                           Outbox* out) REQUIRES(mu_);

  // -- shared internals (engine_common.cc) --
  // Installs `value` for `key`, maintaining dependency tracking and WAL.
  void InstallValue(const ItemKey& key, const PolyValue& raw_value,
                    Outbox* out) REQUIRES(mu_);
  // Reads `key` for an effect in `out` that exposes its value: the
  // effect then waits for the record that wrote the value.
  Result<PolyValue> ReadExposed(const ItemKey& key, Outbox* out) const
      REQUIRES(mu_);
  void HandleLearnedOutcome(TxnId txn, bool committed, Outbox* out)
      REQUIRES(mu_);
  void HandleOutcomeReply(const Message& msg, Outbox* out) REQUIRES(mu_);
  void HandleOutcomeNotify(SiteId from, const Message& msg, Outbox* out)
      REQUIRES(mu_);
  void InquiryTick();
  void MarkPreparedDurable(TxnId txn, SiteId coordinator,
                           const std::map<ItemKey, PolyValue>& writes,
                           Outbox* out) REQUIRES(mu_);
  void ClearPreparedDurable(TxnId txn, Outbox* out) REQUIRES(mu_);
  void RecordDecisionDurable(TxnId txn, bool commit, Outbox* out)
      REQUIRES(mu_);
  // Appends `record` (when a WAL is attached) and makes `out`'s effects
  // depend on it. Returns its LSN, 0 without a WAL.
  uint64_t Wal_(const WalRecord& record, Outbox* out) REQUIRES(mu_);
  void FlushOutbox(Outbox* out) EXCLUDES(mu_);

  // Schedules `fn` after `delay`, guarded so the callback is a no-op once
  // this engine is destroyed (timers may outlive a restarted site).
  Scheduler::TimerId ScheduleGuarded(double delay, std::function<void()> fn);

  // Trace emission helpers. The null check comes first so an unattached
  // sink costs one predictable branch and nothing is constructed; call
  // sites that must *compute* event arguments guard on trace_ themselves.
  void Trace(TraceEventType type, TxnId txn, bool flag = false,
             uint64_t arg = 0) REQUIRES(mu_) {
    if (trace_ == nullptr) {
      return;
    }
    TraceEvent event;
    event.time = scheduler_->Now();
    event.type = type;
    event.site = self_;
    event.txn = txn;
    event.flag = flag;
    event.arg = arg;
    trace_->Emit(event);
  }
  void TraceKey(TraceEventType type, TxnId txn, const ItemKey& key,
                bool flag = false) REQUIRES(mu_) {
    if (trace_ == nullptr) {
      return;
    }
    TraceEvent event;
    event.time = scheduler_->Now();
    event.type = type;
    event.site = self_;
    event.txn = txn;
    event.key = key;
    event.flag = flag;
    trace_->Emit(event);
  }

  static constexpr int kSiteShift = kTxnSiteShift;

  const SiteId self_;
  ItemStore* const items_;
  OutcomeTable* const outcomes_;
  Scheduler* const scheduler_;
  const SendFn send_;
  const EngineConfig config_;
  Wal* wal_ = nullptr;
  TraceSink* trace_ GUARDED_BY(mu_) = nullptr;

  mutable Mutex mu_ POLYV_MUTEX_RANK(kEngine);
  // Txn-id sequence. Atomic so AllocateTxnId (called on every client
  // Submit) never touches mu_; writers that raise the floor after
  // recovery use a monotonic CAS.
  std::atomic<uint64_t> next_seq_{1};
  std::map<TxnId, Coordination> coordinations_ GUARDED_BY(mu_);
  std::map<TxnId, Participation> participations_ GUARDED_BY(mu_);

  // Durable-by-contract (survives Crash; mirrored to WAL when attached):
  // coordinator decisions...
  std::map<TxnId, bool> decided_ GUARDED_BY(mu_);
  // ...and participant prepared-but-undecided writes.
  struct Prepared {
    SiteId coordinator;
    std::map<ItemKey, PolyValue> writes;
  };
  std::map<TxnId, Prepared> prepared_ GUARDED_BY(mu_);

  std::map<TxnId, std::vector<OutcomeCallback>> outcome_subscribers_
      GUARDED_BY(mu_);

  bool inquiry_loop_running_ GUARDED_BY(mu_) = false;
  bool crashed_ GUARDED_BY(mu_) = false;
  EngineMetrics metrics_ GUARDED_BY(mu_);
  // Liveness token shared with scheduled callbacks; flipped false on
  // destruction so stale timers cannot touch a dead engine.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace polyvalue

#endif  // SRC_TXN_ENGINE_H_
