// Shared engine internals: construction, message dispatch, install path,
// outcome learning/propagation, crash/recovery, durability plumbing.
#include "src/txn/engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"

namespace polyvalue {

const char* InDoubtPolicyName(InDoubtPolicy policy) {
  switch (policy) {
    case InDoubtPolicy::kPolyvalue:
      return "polyvalue";
    case InDoubtPolicy::kBlock:
      return "block";
    case InDoubtPolicy::kArbitrary:
      return "arbitrary";
  }
  return "?";
}

const char* ProtocolLegName(ProtocolLeg leg) {
  switch (leg) {
    case ProtocolLeg::kTwoPhase:
      return "two_phase";
    case ProtocolLeg::kPaxosCommit:
      return "paxos_commit";
  }
  return "?";
}

void EngineMetrics::Accumulate(const EngineMetrics& other) {
  txns_submitted += other.txns_submitted;
  txns_committed += other.txns_committed;
  txns_aborted += other.txns_aborted;
  txns_read_only += other.txns_read_only;
  polytxns += other.polytxns;
  alternatives_executed += other.alternatives_executed;
  uncertain_outputs += other.uncertain_outputs;
  polyvalue_installs += other.polyvalue_installs;
  polyvalues_resolved += other.polyvalues_resolved;
  wait_timeouts += other.wait_timeouts;
  blocked_holds += other.blocked_holds;
  arbitrary_commits += other.arbitrary_commits;
  outcome_inquiries += other.outcome_inquiries;
  outcome_notifies += other.outcome_notifies;
  local_fast_path += other.local_fast_path;
  lock_waits += other.lock_waits;
  lock_wait_resumes += other.lock_wait_resumes;
  paxos_votes += other.paxos_votes;
  paxos_accepts += other.paxos_accepts;
  paxos_failovers += other.paxos_failovers;
  paxos_recovery_ballots += other.paxos_recovery_ballots;
  compute_phase_seconds += other.compute_phase_seconds;
  compute_phase_count += other.compute_phase_count;
  wait_phase_seconds += other.wait_phase_seconds;
  wait_phase_count += other.wait_phase_count;
  wait_phase_max = std::max(wait_phase_max, other.wait_phase_max);
}

void EngineMetrics::ExportTo(MetricsRegistry* registry,
                             const std::string& prefix) const {
  registry->SetCounter(prefix + "txns_submitted", txns_submitted);
  registry->SetCounter(prefix + "txns_committed", txns_committed);
  registry->SetCounter(prefix + "txns_aborted", txns_aborted);
  registry->SetCounter(prefix + "txns_read_only", txns_read_only);
  registry->SetCounter(prefix + "polytxns", polytxns);
  registry->SetCounter(prefix + "alternatives_executed",
                       alternatives_executed);
  registry->SetCounter(prefix + "uncertain_outputs", uncertain_outputs);
  registry->SetCounter(prefix + "polyvalue_installs", polyvalue_installs);
  registry->SetCounter(prefix + "polyvalues_resolved", polyvalues_resolved);
  registry->SetCounter(prefix + "wait_timeouts", wait_timeouts);
  registry->SetCounter(prefix + "blocked_holds", blocked_holds);
  registry->SetCounter(prefix + "arbitrary_commits", arbitrary_commits);
  registry->SetCounter(prefix + "outcome_inquiries", outcome_inquiries);
  registry->SetCounter(prefix + "outcome_notifies", outcome_notifies);
  registry->SetCounter(prefix + "local_fast_path", local_fast_path);
  registry->SetCounter(prefix + "lock_waits", lock_waits);
  registry->SetCounter(prefix + "lock_wait_resumes", lock_wait_resumes);
  registry->SetCounter(prefix + "paxos_votes", paxos_votes);
  registry->SetCounter(prefix + "paxos_accepts", paxos_accepts);
  registry->SetCounter(prefix + "paxos_failovers", paxos_failovers);
  registry->SetCounter(prefix + "paxos_recovery_ballots",
                       paxos_recovery_ballots);
  registry->SetCounter(prefix + "compute_phase_count", compute_phase_count);
  registry->SetCounter(prefix + "wait_phase_count", wait_phase_count);
  registry->Gauge(prefix + "compute_phase_seconds", compute_phase_seconds);
  registry->Gauge(prefix + "wait_phase_seconds", wait_phase_seconds);
  registry->Gauge(prefix + "wait_phase_max", wait_phase_max);
}

TxnEngine::TxnEngine(SiteId self, ItemStore* items, OutcomeTable* outcomes,
                     Scheduler* scheduler, SendFn send, EngineConfig config)
    : self_(self),
      items_(items),
      outcomes_(outcomes),
      scheduler_(scheduler),
      send_(std::move(send)),
      config_(config) {
  POLYV_CHECK(self.valid());
  POLYV_CHECK_LT(self.value(), 1ULL << (64 - kSiteShift));
}

TxnEngine::~TxnEngine() { *alive_ = false; }

Scheduler::TimerId TxnEngine::ScheduleGuarded(double delay,
                                              std::function<void()> fn) {
  return scheduler_->ScheduleAfter(
      delay, [alive = alive_, fn = std::move(fn)] {
        if (*alive) {
          fn();
        }
      });
}

TxnId TxnEngine::AllocateTxnId() {
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  return TxnId((self_.value() << kSiteShift) | seq);
}

void TxnEngine::RaiseSeqFloor(uint64_t max_seq) {
  uint64_t cur = next_seq_.load(std::memory_order_relaxed);
  while (max_seq >= cur &&
         !next_seq_.compare_exchange_weak(cur, max_seq + 1,
                                          std::memory_order_relaxed)) {
  }
}

SiteId TxnEngine::CoordinatorOf(TxnId txn) {
  return SiteId(txn.value() >> kSiteShift);
}

void TxnEngine::OnMessage(SiteId from, const Message& msg) {
  Outbox out;
  {
    MutexLock lock(&mu_);
    if (crashed_) {
      return;  // a down site neither sends nor receives
    }
    POLYV_TRACE << self_ << " <- " << from << " " << MsgTypeName(msg.type)
                << " " << msg.txn;
    switch (msg.type) {
      case MsgType::kPrepare:
        HandlePrepare(from, msg, &out);
        break;
      case MsgType::kPrepareReply:
        HandlePrepareReply(from, msg, &out);
        break;
      case MsgType::kWriteReq:
        HandleWriteReq(from, msg, &out);
        break;
      case MsgType::kReady:
        HandleReady(from, msg, &out);
        break;
      case MsgType::kComplete:
        HandleComplete(msg, &out);
        break;
      case MsgType::kAbort:
        HandleAbort(msg, &out);
        break;
      case MsgType::kOutcomeRequest:
        HandleOutcomeRequest(from, msg, &out);
        break;
      case MsgType::kOutcomeReply:
        HandleOutcomeReply(msg, &out);
        break;
      case MsgType::kOutcomeNotify:
        HandleOutcomeNotify(from, msg, &out);
        break;
      case MsgType::kPaxosPhase1a:
      case MsgType::kPaxosPhase1b:
      case MsgType::kPaxosPhase2a:
      case MsgType::kPaxosPhase2b:
      case MsgType::kPaxosDecision:
      case MsgType::kPaxosNudge:
        // Paxos Commit traffic belongs to the PaxosEngine leg; a 2PC
        // engine that receives it discards it loudly.
        Trace(TraceEventType::kMsgIgnored, msg.txn, false,
              static_cast<uint64_t>(msg.type));
        break;
    }
  }
  FlushOutbox(&out);
}

void TxnEngine::FlushOutbox(Outbox* out) {
  // Group-commit barrier: nothing externally visible — no message, no
  // client callback — leaves this engine until every WAL record it
  // depends on is durable (the engine.h durability rule). Under
  // per-append sync policies this is a no-op; under group commit it
  // coalesces the records buffered so far, by this section and by
  // concurrent transactions, into one write+fsync, performed here,
  // outside the engine lock. A target already durable costs nothing.
  if (wal_ != nullptr && out->wal_target > 0 &&
      !(out->sends.empty() && out->thunks.empty())) {
    const Status s = wal_->FlushTo(out->wal_target);
    if (!s.ok()) {
      POLYV_ERROR << self_ << " WAL flush failed: " << s;
    }
  }
  for (auto& [to, msg] : out->sends) {
    send_(to, msg);
  }
  for (auto& thunk : out->thunks) {
    thunk();
  }
  out->sends.clear();
  out->thunks.clear();
  out->wal_target = 0;
}

uint64_t TxnEngine::Wal_(const WalRecord& record, Outbox* out) {
  if (wal_ == nullptr) {
    return 0;
  }
  const Result<uint64_t> lsn = wal_->Append(record);
  if (!lsn.ok()) {
    POLYV_ERROR << self_ << " WAL append failed: " << lsn.status();
    return 0;
  }
  out->DependOn(lsn.value());
  return lsn.value();
}

Result<PolyValue> TxnEngine::ReadExposed(const ItemKey& key,
                                         Outbox* out) const {
  uint64_t write_lsn = 0;
  Result<PolyValue> value = items_->Read(key, &write_lsn);
  out->DependOn(write_lsn);
  return value;
}

// Installs a value, keeping the §3.3 dependency table consistent: drop
// tracking entries of the overwritten value's dependencies, register the
// new value's, and log everything.
//
// Dependencies whose outcome this site already knows are reduced away
// first: a write computed from a polyvalue can arrive after its
// underlying transaction resolved here, and recording a dependency on an
// already-resolved transaction would leave a pending-table entry that no
// future LearnOutcome will clear.
//
// The item is stamped with the LSN of the install's last record, so a
// reader that exposes the value also waits for its tracking records.
void TxnEngine::InstallValue(const ItemKey& key, const PolyValue& raw_value,
                             Outbox* out) {
  PolyValue value = raw_value;
  for (TxnId dep : raw_value.Dependencies()) {
    const std::optional<bool> known = outcomes_->KnownOutcome(dep);
    if (known.has_value()) {
      value = value.Reduce(dep, *known);
    }
  }
  const Result<PolyValue> previous = items_->Read(key);
  const bool was_uncertain = previous.ok() && !previous.value().is_certain();
  if (previous.ok()) {
    for (TxnId dep : previous.value().Dependencies()) {
      outcomes_->ForgetDependentItem(dep, key);
      Wal_(WalRecord::UntrackItem(dep, key), out);
    }
    if (was_uncertain && value.is_certain()) {
      ++metrics_.polyvalues_resolved;
      TraceKey(TraceEventType::kPolyReduce, TxnId(), key);
    }
  }
  if (trace_ != nullptr && !was_uncertain && !value.is_certain()) {
    const std::vector<TxnId> deps = value.Dependencies();
    TraceKey(TraceEventType::kPolyInstall,
             deps.empty() ? TxnId() : deps.front(), key);
  }
  items_->Write(key, value);
  uint64_t lsn = Wal_(WalRecord::Write(key, value), out);
  for (TxnId dep : value.Dependencies()) {
    outcomes_->RecordDependentItem(dep, key);
    lsn = Wal_(WalRecord::TrackItem(dep, key), out);
  }
  items_->SetWriteLsn(key, lsn);
  if (config_.validate_installs && !value.is_certain()) {
    POLYV_CHECK_MSG(value.Validate(),
                    "installed polyvalue violates complete/disjoint: "
                    << value.ToString());
  }
}

// §3.3: a learned outcome reduces local dependents, is forwarded to every
// recorded downstream site, and the entry is then forgotten.
void TxnEngine::HandleLearnedOutcome(TxnId txn, bool committed,
                                     Outbox* out) {
  const OutcomeTable::Resolution res =
      outcomes_->LearnOutcome(txn, committed);
  if (res.already_known) {
    // Redundant outcome information (duplicate COMPLETE/ABORT/NOTIFY or
    // an inquiry answer that raced a push).
    Trace(TraceEventType::kMsgIgnored, txn, committed);
    return;
  }
  Trace(TraceEventType::kOutcomeLearned, txn, committed);
  Wal_(WalRecord::Outcome(txn, committed), out);
  for (const ItemKey& key : res.items_to_reduce) {
    const Result<PolyValue> current = items_->Read(key);
    if (!current.ok()) {
      continue;
    }
    const PolyValue reduced = current.value().Reduce(txn, committed);
    if (reduced == current.value()) {
      continue;
    }
    if (!current.value().is_certain() && reduced.is_certain()) {
      ++metrics_.polyvalues_resolved;
      TraceKey(TraceEventType::kPolyReduce, txn, key, committed);
    }
    items_->Write(key, reduced);
    items_->SetWriteLsn(key, Wal_(WalRecord::Write(key, reduced), out));
    // Remaining dependencies of `reduced` are already tracked (they were
    // dependencies of `current` too).
  }
  for (SiteId site : res.sites_to_notify) {
    if (site == self_) {
      continue;
    }
    ++metrics_.outcome_notifies;
    Trace(TraceEventType::kOutcomeNotify, txn, committed, site.value());
    out->DependOn(kWholeLog);
    out->sends.emplace_back(site, MakeOutcomeNotify(txn, committed));
  }
  // A blocked (kBlock) or still-pending participation on this txn can now
  // finish.
  auto it = participations_.find(txn);
  if (it != participations_.end() && it->second.state == PartState::kWait) {
    FinishParticipation(txn, &it->second, committed, out);
  }
  // Release §3.4 withheld-output subscribers.
  auto subs = outcome_subscribers_.find(txn);
  if (subs != outcome_subscribers_.end()) {
    out->DependOn(kWholeLog);
    for (OutcomeCallback& callback : subs->second) {
      out->thunks.push_back(
          [callback = std::move(callback), committed] {
            callback(committed);
          });
    }
    outcome_subscribers_.erase(subs);
  }
}

void TxnEngine::HandleOutcomeReply(const Message& msg, Outbox* out) {
  if (!msg.known) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kOutcomeReply));
    return;  // coordinator undecided; inquiry loop will retry
  }
  HandleLearnedOutcome(msg.txn, msg.committed, out);
}

void TxnEngine::HandleOutcomeNotify(SiteId from, const Message& msg,
                                    Outbox* out) {
  (void)from;
  HandleLearnedOutcome(msg.txn, msg.committed, out);
}

// Periodic pull: ask the coordinator of every still-unknown transaction.
// This backstops lost OutcomeNotify pushes and coordinator crashes.
void TxnEngine::InquiryTick() {
  Outbox out;
  out.DependOn(kWholeLog);
  {
    MutexLock lock(&mu_);
    if (crashed_) {
      inquiry_loop_running_ = false;
      return;
    }
    std::vector<TxnId> unknown = outcomes_->UnknownTransactions();
    // Blocked participations also need their outcome even when no local
    // polyvalue records the dependency.
    for (const auto& [txn, part] : participations_) {
      if (part.state == PartState::kWait && part.blocked) {
        unknown.push_back(txn);
      }
    }
    if (unknown.empty()) {
      inquiry_loop_running_ = false;
      return;
    }
    for (TxnId txn : unknown) {
      const SiteId coordinator = CoordinatorOf(txn);
      if (coordinator == self_) {
        // We are the coordinator: resolve locally (presumed abort if no
        // record — we crashed before deciding).
        auto decided = decided_.find(txn);
        const bool known_commit =
            decided != decided_.end() && decided->second;
        const bool in_flight = coordinations_.count(txn) > 0;
        if (!in_flight) {
          HandleLearnedOutcome(txn, known_commit, &out);
        }
        continue;
      }
      ++metrics_.outcome_inquiries;
      Trace(TraceEventType::kOutcomeInquiry, txn, false,
            coordinator.value());
      out.sends.emplace_back(coordinator, MakeOutcomeRequest(txn));
    }
    ScheduleGuarded(config_.inquiry_interval, [this] { InquiryTick(); });
  }
  FlushOutbox(&out);
}

void TxnEngine::EnsureInquiryLoop() {
  bool start = false;
  {
    MutexLock lock(&mu_);
    if (!inquiry_loop_running_ && !crashed_) {
      inquiry_loop_running_ = true;
      start = true;
    }
  }
  if (start) {
    ScheduleGuarded(config_.inquiry_interval, [this] { InquiryTick(); });
  }
}

void TxnEngine::MarkPreparedDurable(
    TxnId txn, SiteId coordinator,
    const std::map<ItemKey, PolyValue>& writes, Outbox* out) {
  prepared_[txn] = Prepared{coordinator, writes};
  Wal_(WalRecord::Prepared(txn, coordinator, writes), out);
}

void TxnEngine::ClearPreparedDurable(TxnId txn, Outbox* out) {
  prepared_.erase(txn);
  Wal_(WalRecord::PreparedResolved(txn), out);
}

void TxnEngine::RecordDecisionDurable(TxnId txn, bool commit, Outbox* out) {
  decided_[txn] = commit;
  Wal_(WalRecord::Outcome(txn, commit), out);
}

void TxnEngine::Crash() {
  std::vector<TxnCallback> orphaned;
  {
    MutexLock lock(&mu_);
    Trace(TraceEventType::kCrash, TxnId());
    crashed_ = true;
    for (auto& [txn, coord] : coordinations_) {
      if (coord.timer != 0) {
        scheduler_->Cancel(coord.timer);
      }
      // In-flight clients never hear back — exactly the real failure mode.
      (void)orphaned;
    }
    coordinations_.clear();
    for (auto& [txn, part] : participations_) {
      if (part.wait_timer != 0) {
        scheduler_->Cancel(part.wait_timer);
      }
      items_->CancelWaits(txn);
      (void)items_->UnlockAll(txn);
    }
    participations_.clear();
    outcome_subscribers_.clear();  // volatile, like in-flight clients
    inquiry_loop_running_ = false;
  }
}

void TxnEngine::Recover() {
  Outbox out;
  out.DependOn(kWholeLog);
  {
    MutexLock lock(&mu_);
    crashed_ = false;
    Trace(TraceEventType::kRecover, TxnId(), false, prepared_.size());
    // Re-enter the in-doubt path for every prepared-but-undecided
    // transaction that survived in the durable state.
    std::vector<TxnId> pending;
    for (const auto& [txn, prepared] : prepared_) {
      pending.push_back(txn);
    }
    for (TxnId txn : pending) {
      const Prepared& prepared = prepared_.at(txn);
      // If we already learned the outcome (e.g. via WAL outcome records),
      // finish directly.
      const std::optional<bool> known = outcomes_->KnownOutcome(txn);
      Participation part;
      part.coordinator = prepared.coordinator;
      part.state = PartState::kWait;
      part.pending_writes = prepared.writes;
      // Re-acquire the write locks the crash released: a blocked (kBlock)
      // participation that resolves to COMMIT later will install its
      // prepared writes, and without the locks an interleaved transaction
      // could be silently overwritten (lost update). Immediately after
      // recovery nothing else can hold these locks.
      for (const auto& [key, value] : prepared.writes) {
        const Status locked = items_->Lock(key, txn);
        POLYV_CHECK_MSG(locked.ok(), "post-recovery relock failed for '"
                                         << key << "': " << locked);
        part.locked_keys.push_back(key);
      }
      auto [it, inserted] = participations_.emplace(txn, std::move(part));
      POLYV_CHECK(inserted);
      if (known.has_value()) {
        FinishParticipation(txn, &it->second, *known, &out);
      } else {
        ApplyInDoubtPolicy(txn, &it->second, &out);
      }
    }
  }
  FlushOutbox(&out);
  EnsureInquiryLoop();
}

void TxnEngine::RestoreDurableState(const std::vector<WalRecord>& records) {
  MutexLock lock(&mu_);
  uint64_t max_seq = 0;
  for (const WalRecord& record : records) {
    switch (record.type) {
      case WalRecordType::kOutcome:
        if (CoordinatorOf(record.txn) == self_) {
          decided_[record.txn] = record.committed;
          max_seq = std::max<uint64_t>(
              max_seq, record.txn.value() & ((1ULL << kSiteShift) - 1));
        }
        break;
      case WalRecordType::kPrepared:
        prepared_[record.txn] = Prepared{record.site, record.writes};
        break;
      case WalRecordType::kPreparedResolved:
        prepared_.erase(record.txn);
        break;
      default:
        break;
    }
  }
  RaiseSeqFloor(max_seq);
}

void TxnEngine::SubscribeOutcome(TxnId txn, OutcomeCallback callback) {
  Outbox out;
  out.DependOn(kWholeLog);
  {
    MutexLock lock(&mu_);
    std::optional<bool> known = outcomes_->KnownOutcome(txn);
    if (!known.has_value()) {
      auto decided = decided_.find(txn);
      if (decided != decided_.end()) {
        known = decided->second;
      }
    }
    if (known.has_value()) {
      out.thunks.push_back(
          [callback = std::move(callback), value = *known] {
            callback(value);
          });
    } else {
      outcome_subscribers_[txn].push_back(std::move(callback));
      // Make sure somebody is chasing this outcome.
      outcomes_->RecordDependentItem(txn, "");
      outcomes_->ForgetDependentItem(txn, "");
      out.thunks.push_back([this] { EnsureInquiryLoop(); });
    }
  }
  FlushOutbox(&out);
}

void TxnEngine::ExportDurableState(SiteSnapshot* snapshot) const {
  MutexLock lock(&mu_);
  for (const auto& [txn, prepared] : prepared_) {
    snapshot->prepared.push_back(
        {txn, prepared.coordinator, prepared.writes});
  }
  snapshot->decided = decided_;
}

void TxnEngine::ImportDurableState(const SiteSnapshot& snapshot) {
  MutexLock lock(&mu_);
  for (const SiteSnapshot::PreparedTxn& p : snapshot.prepared) {
    prepared_[p.txn] = Prepared{p.coordinator, p.writes};
  }
  uint64_t max_seq = 0;
  for (const auto& [txn, committed] : snapshot.decided) {
    decided_[txn] = committed;
    if (CoordinatorOf(txn) == self_) {
      max_seq = std::max<uint64_t>(
          max_seq, txn.value() & ((1ULL << kSiteShift) - 1));
    }
  }
  RaiseSeqFloor(max_seq);
}

EngineMetrics TxnEngine::metrics() const {
  MutexLock lock(&mu_);
  return metrics_;
}

std::optional<bool> TxnEngine::DecidedOutcome(TxnId txn) const {
  MutexLock lock(&mu_);
  auto it = decided_.find(txn);
  if (it == decided_.end()) {
    return std::nullopt;
  }
  return it->second;
}

}  // namespace polyvalue
