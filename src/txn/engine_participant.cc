// Participant role: Figure 1's idle/compute/wait state machine, with the
// three in-doubt policies at the wait-timeout edge.
#include "src/txn/engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"

namespace polyvalue {

void TxnEngine::HandlePrepare(SiteId from, const Message& msg, Outbox* out) {
  (void)from;
  const TxnId txn = msg.txn;
  // Ignore a duplicate PREPARE, and one that an ABORT overtook: the
  // coordinator has decided, so lock nothing and arm no watchdog. (Once
  // the bounded resolved cache evicts the txn, a late PREPARE is served
  // and the compute watchdog frees its locks.)
  if (participations_.count(txn) > 0 || prepared_.count(txn) > 0 ||
      outcomes_->KnownOutcome(txn) == std::optional<bool>(false)) {
    Trace(TraceEventType::kMsgIgnored, txn, false,
          static_cast<uint64_t>(MsgType::kPrepare));
    return;
  }

  // idle -> compute: lock every item this site contributes, then read.
  Participation part;
  part.coordinator = msg.coordinator;
  part.state = PartState::kCompute;
  part.compute_entered_at = scheduler_->Now();
  part.parked_prepare = msg;

  std::vector<ItemKey> all_keys = msg.read_keys;
  all_keys.insert(all_keys.end(), msg.write_keys.begin(),
                  msg.write_keys.end());
  std::sort(all_keys.begin(), all_keys.end());
  all_keys.erase(std::unique(all_keys.begin(), all_keys.end()),
                 all_keys.end());

  for (const ItemKey& key : all_keys) {
    // Keys this site only reads are shared; keys it writes, exclusive.
    const ItemStore::LockMode mode =
        std::find(msg.write_keys.begin(), msg.write_keys.end(), key) ==
                msg.write_keys.end()
            ? ItemStore::LockMode::kShared
            : ItemStore::LockMode::kExclusive;
    if (config_.lock_wait == LockWaitPolicy::kWaitDie) {
      switch (items_->LockOrQueue(key, txn, mode)) {
        case ItemStore::LockAttempt::kGranted:
          part.locked_keys.push_back(key);
          break;
        case ItemStore::LockAttempt::kQueued:
          part.awaited_keys.insert(key);
          break;
        case ItemStore::LockAttempt::kRefused:
          items_->CancelWaits(txn);
          ReleaseLocks(txn, out);
          TraceKey(TraceEventType::kPrepareRefused, txn, key);
          out->sends.emplace_back(
              msg.coordinator,
              MakePrepareRefusal(txn, "wait-die: younger than holder of '" +
                                          key + "'"));
          return;
      }
    } else {
      const Status lock_status = items_->Lock(key, txn, mode);
      if (!lock_status.ok()) {
        ReleaseLocks(txn, out);
        TraceKey(TraceEventType::kPrepareRefused, txn, key);
        out->sends.emplace_back(
            msg.coordinator,
            MakePrepareRefusal(txn, lock_status.message()));
        return;
      }
      part.locked_keys.push_back(key);
    }
  }

  // compute-phase watchdog: if the coordinator dies before shipping
  // writes (or our queued locks never arrive), discard. We have not
  // voted, so unilateral abort is safe (Fig. 1's compute -> idle edge).
  part.wait_timer = ScheduleGuarded(
      config_.prepare_timeout + config_.ready_timeout,
      [this, txn] {
        Outbox timeout_out;
        {
          MutexLock lock(&mu_);
          if (crashed_) {
            return;
          }
          auto it = participations_.find(txn);
          if (it == participations_.end() ||
              it->second.state != PartState::kCompute) {
            return;
          }
          items_->CancelWaits(txn);
          ReleaseLocks(txn, &timeout_out);
          participations_.erase(it);
          Trace(TraceEventType::kComputeDiscard, txn);
        }
        FlushOutbox(&timeout_out);
      });

  const bool parked = !part.awaited_keys.empty();
  auto [it, inserted] = participations_.emplace(txn, std::move(part));
  POLYV_CHECK(inserted);
  Trace(TraceEventType::kPrepareRecv, txn, parked);
  if (parked) {
    ++metrics_.lock_waits;
    return;  // resumed from ReleaseLocks when the grants arrive
  }
  FinishPrepareReads(txn, &it->second, out);
}

void TxnEngine::FinishPrepareReads(TxnId txn, Participation* part,
                                   Outbox* out) {
  const Message& msg = part->parked_prepare;
  std::vector<ItemKey> all_keys = msg.read_keys;
  all_keys.insert(all_keys.end(), msg.write_keys.begin(),
                  msg.write_keys.end());
  std::sort(all_keys.begin(), all_keys.end());
  all_keys.erase(std::unique(all_keys.begin(), all_keys.end()),
                 all_keys.end());

  std::map<ItemKey, PolyValue> values;
  for (const ItemKey& key : all_keys) {
    Result<PolyValue> value = ReadExposed(key, out);
    if (!value.ok()) {
      const bool is_write_only =
          std::find(msg.read_keys.begin(), msg.read_keys.end(), key) ==
          msg.read_keys.end();
      if (is_write_only) {
        // Creating a new item: previous value is Null.
        values.emplace(key, PolyValue::Certain(Value::Null()));
        continue;
      }
      const SiteId coordinator = part->coordinator;
      if (part->wait_timer != 0) {
        scheduler_->Cancel(part->wait_timer);
      }
      participations_.erase(txn);  // invalidates part
      items_->CancelWaits(txn);
      ReleaseLocks(txn, out);
      TraceKey(TraceEventType::kPrepareRefused, txn, key);
      out->sends.emplace_back(
          coordinator, MakePrepareRefusal(txn, value.status().message()));
      return;
    }
    // Shipping a polyvalue to the coordinator obliges us to forward the
    // outcomes it depends on (§3.3).
    for (TxnId dep : value.value().Dependencies()) {
      if (part->coordinator != self_) {
        outcomes_->RecordDownstreamSite(dep, part->coordinator);
        Wal_(WalRecord::TrackSite(dep, part->coordinator), out);
      }
    }
    values.emplace(key, std::move(value).value());
  }
  part->prepare_replied = true;
  Trace(TraceEventType::kPrepareReplied, txn, /*flag=*/true);
  out->sends.emplace_back(part->coordinator,
                          MakePrepareReply(txn, std::move(values)));
}

void TxnEngine::ReleaseLocks(TxnId txn, Outbox* out) {
  const std::vector<ItemStore::Grant> grants = items_->UnlockAll(txn);
  for (const ItemStore::Grant& grant : grants) {
    auto it = participations_.find(grant.txn);
    if (it == participations_.end()) {
      // Granted to a transaction we no longer track (raced away): free
      // the lock again so it is not orphaned.
      ReleaseLocks(grant.txn, out);
      continue;
    }
    Participation& waiter = it->second;
    waiter.locked_keys.push_back(grant.key);
    waiter.awaited_keys.erase(grant.key);
    if (waiter.awaited_keys.empty() &&
        waiter.state == PartState::kCompute && !waiter.prepare_replied) {
      ++metrics_.lock_wait_resumes;
      FinishPrepareReads(grant.txn, &waiter, out);
    }
  }
}

void TxnEngine::HandleWriteReq(SiteId from, const Message& msg,
                               Outbox* out) {
  const TxnId txn = msg.txn;
  auto it = participations_.find(txn);
  if (it == participations_.end() ||
      it->second.state != PartState::kCompute ||
      !it->second.prepare_replied) {
    Trace(TraceEventType::kMsgIgnored, txn, false,
          static_cast<uint64_t>(MsgType::kWriteReq));
    return;  // gave up on this transaction (or never replied): no READY
  }
  Participation& part = it->second;
  if (part.wait_timer != 0) {
    scheduler_->Cancel(part.wait_timer);
  }
  part.pending_writes = msg.writes;
  part.state = PartState::kWait;
  part.wait_entered_at = scheduler_->Now();
  metrics_.compute_phase_seconds +=
      part.wait_entered_at - part.compute_entered_at;
  ++metrics_.compute_phase_count;

  // Vote READY. The vote is a promise: the writes must survive a crash,
  // so they go to the durable prepared set first (§3.1's wait phase).
  MarkPreparedDurable(txn, part.coordinator, part.pending_writes, out);
  Trace(TraceEventType::kReadySent, txn, false, part.pending_writes.size());
  out->sends.emplace_back(from, MakeReady(txn));

  // wait -> idle happens on COMPLETE, ABORT, or this timeout.
  part.wait_timer = ScheduleGuarded(
      config_.wait_timeout, [this, txn] { WaitTimeout(txn); });
}

void TxnEngine::HandleComplete(const Message& msg, Outbox* out) {
  auto it = participations_.find(msg.txn);
  if (it != participations_.end() &&
      it->second.state == PartState::kWait) {
    FinishParticipation(msg.txn, &it->second, /*commit=*/true, out);
    return;
  }
  // Late COMPLETE after the in-doubt policy already ran: treat it as
  // learning the outcome (reduces any polyvalues we installed).
  HandleLearnedOutcome(msg.txn, /*committed=*/true, out);
}

void TxnEngine::HandleAbort(const Message& msg, Outbox* out) {
  auto it = participations_.find(msg.txn);
  if (it != participations_.end()) {
    if (it->second.state == PartState::kCompute) {
      // compute -> idle: discard, nothing was promised.
      if (it->second.wait_timer != 0) {
        scheduler_->Cancel(it->second.wait_timer);
      }
      items_->CancelWaits(msg.txn);
      ReleaseLocks(msg.txn, out);
      participations_.erase(msg.txn);
      Trace(TraceEventType::kComputeDiscard, msg.txn);
      return;
    }
    FinishParticipation(msg.txn, &it->second, /*commit=*/false, out);
    return;
  }
  HandleLearnedOutcome(msg.txn, /*committed=*/false, out);
}

// Normal end of the wait phase: install (commit) or discard (abort),
// release locks, return to idle.
void TxnEngine::FinishParticipation(TxnId txn, Participation* part,
                                    bool commit, Outbox* out) {
  if (part->wait_timer != 0) {
    scheduler_->Cancel(part->wait_timer);
    part->wait_timer = 0;
  }
  if (part->state == PartState::kWait && part->wait_entered_at > 0) {
    const double waited = scheduler_->Now() - part->wait_entered_at;
    metrics_.wait_phase_seconds += waited;
    ++metrics_.wait_phase_count;
    metrics_.wait_phase_max = std::max(metrics_.wait_phase_max, waited);
    part->wait_entered_at = 0;
  }
  if (commit) {
    for (const auto& [key, value] : part->pending_writes) {
      InstallValue(key, value, out);
    }
  }
  ClearPreparedDurable(txn, out);
  ReleaseLocks(txn, out);
  // Erase before learning: HandleLearnedOutcome finishes wait-state
  // participations, so the map entry must be gone to avoid recursion.
  participations_.erase(txn);
  // Record the outcome and do the §3.3 work — this site may hold items
  // whose polyvalues depend on txn (shipped to it earlier), and may owe
  // downstream notifications.
  HandleLearnedOutcome(txn, commit, out);
}

void TxnEngine::WaitTimeout(TxnId txn) {
  Outbox out;
  {
    MutexLock lock(&mu_);
    if (crashed_) {
      return;
    }
    auto it = participations_.find(txn);
    if (it == participations_.end() ||
        it->second.state != PartState::kWait) {
      return;
    }
    ++metrics_.wait_timeouts;
    Trace(TraceEventType::kWaitTimeout, txn);
    ApplyInDoubtPolicy(txn, &it->second, &out);
  }
  FlushOutbox(&out);
}

// The heart of the reproduction: what a participant does when neither
// COMPLETE nor ABORT arrived promptly (§3.1's third way out of `wait`).
void TxnEngine::ApplyInDoubtPolicy(TxnId txn, Participation* part,
                                   Outbox* out) {
  switch (config_.policy) {
    case InDoubtPolicy::kPolyvalue: {
      // Install {⟨computed, T⟩, ⟨previous, ¬T⟩} for every written item,
      // release the locks, and return to idle. The outcome table already
      // tracks every dependency via InstallValue; the inquiry loop will
      // chase T's coordinator.
      if (part->wait_entered_at > 0) {
        // The vulnerable window ends here: locks release with the
        // installs (§2.2 instrumentation).
        metrics_.wait_phase_seconds +=
            scheduler_->Now() - part->wait_entered_at;
        ++metrics_.wait_phase_count;
        part->wait_entered_at = 0;
      }
      for (const auto& [key, computed] : part->pending_writes) {
        const Result<PolyValue> prev = items_->Read(key);
        const PolyValue previous =
            prev.ok() ? prev.value() : PolyValue::Certain(Value::Null());
        const PolyValue installed =
            PolyValue::InstallUncertain(txn, computed, previous);
        InstallValue(key, installed, out);
        ++metrics_.polyvalue_installs;
      }
      // Erasing the participation frees `part`: read what the trace
      // needs first.
      const size_t installed = part->pending_writes.size();
      ClearPreparedDurable(txn, out);
      ReleaseLocks(txn, out);
      participations_.erase(txn);
      Trace(TraceEventType::kUncertainRelease, txn, false, installed);
      out->thunks.push_back([this] { EnsureInquiryLoop(); });
      break;
    }
    case InDoubtPolicy::kBlock: {
      // Classic 2PC: hold every lock until the outcome is known. The
      // inquiry loop polls the coordinator; FinishParticipation runs from
      // HandleLearnedOutcome when the answer arrives.
      ++metrics_.blocked_holds;
      Trace(TraceEventType::kBlockedHold, txn);
      part->blocked = true;
      out->thunks.push_back([this] { EnsureInquiryLoop(); });
      break;
    }
    case InDoubtPolicy::kArbitrary: {
      // Relaxed consistency (§2.3): guess commit and move on. Fast, but
      // if the coordinator actually aborted this violates atomicity —
      // the availability bench audits exactly that.
      ++metrics_.arbitrary_commits;
      Trace(TraceEventType::kArbitraryCommit, txn);
      FinishParticipation(txn, part, /*commit=*/true, out);
      break;
    }
  }
}

}  // namespace polyvalue
