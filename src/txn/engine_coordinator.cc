// Coordinator role: Submit → PREPARE fan-out → execute (poly)transaction
// → WRITE_REQ fan-out → READY collection → decide → COMPLETE/ABORT.
#include "src/txn/engine.h"

#include <set>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/strings.h"

namespace polyvalue {

TxnId TxnEngine::Submit(TxnSpec spec, TxnCallback callback) {
  return Submit(std::move(spec), std::move(callback), AllocateTxnId());
}

TxnId TxnEngine::Submit(TxnSpec spec, TxnCallback callback, TxnId txn) {
  POLYV_CHECK_MSG(CoordinatorOf(txn) == self_,
                  "txn id " << txn << " was not allocated by " << self_);
  Outbox out;
  SubmitUnderLock(std::move(spec), std::move(callback), txn, &out);
  FlushOutbox(&out);
  return txn;
}

void TxnEngine::SubmitUnderLock(TxnSpec spec, TxnCallback callback, TxnId txn,
                                Outbox* out) {
  MutexLock lock(&mu_);
  ++metrics_.txns_submitted;
  if (crashed_) {
    out->thunks.push_back([callback = std::move(callback), txn] {
      TxnResult r;
      r.id = txn;
      r.disposition = TxnDisposition::kAborted;
      r.abort_reason = "coordinator site is down";
      callback(r);
    });
    return;
  }
  Trace(TraceEventType::kSubmit, txn);
  Coordination coord;
  coord.participants = spec.Participants();
  coord.callback = std::move(callback);

  if (config_.enable_local_fast_path && coord.participants.size() == 1 &&
      coord.participants.front() == self_) {
    if (TryLocalFastPath(txn, spec, coord.callback, out)) {
      return;
    }
  }

  if (coord.participants.empty()) {
    // Pure computation: execute immediately against an empty read set.
    TxnEffect effect = spec.logic(TxnReads{});
    TxnResult r;
    r.id = txn;
    if (effect.abort) {
      ++metrics_.txns_aborted;
      Trace(TraceEventType::kDecisionAbort, txn);
      r.disposition = TxnDisposition::kAborted;
      r.abort_reason = effect.abort_reason;
    } else {
      POLYV_CHECK_MSG(effect.writes.empty(),
                      "transaction writes items but declared no sites");
      ++metrics_.txns_read_only;
      Trace(TraceEventType::kReadOnlyDone, txn);
      r.disposition = TxnDisposition::kReadOnly;
      r.output = PolyValue::Certain(effect.output.value_or(Value::Null()));
    }
    out->thunks.push_back([cb = std::move(coord.callback), r] { cb(r); });
    return;
  }

  // Ask every participant to lock and read its share. Values of
  // write-set items are collected too: §3.2 needs each written item's
  // previous value as the fallback for non-writing alternatives, and
  // the participant needs it to build the ¬T half on a wait timeout.
  for (SiteId site : coord.participants) {
    std::vector<ItemKey> reads;
    std::vector<ItemKey> writes;
    for (const auto& [key, owner] : spec.read_set) {
      if (owner == site) {
        reads.push_back(key);
      }
    }
    for (const auto& [key, owner] : spec.write_set) {
      if (owner == site) {
        writes.push_back(key);
      }
    }
    coord.awaiting.insert(site);
    out->sends.emplace_back(
        site, MakePrepare(txn, self_, std::move(reads), std::move(writes)));
  }
  coord.spec = std::move(spec);
  coord.timer = ScheduleGuarded(
      config_.prepare_timeout,
      [this, txn] { CoordinatorTimeout(txn, CoordPhase::kCollecting); });
  coordinations_.emplace(txn, std::move(coord));
}

// §2.1 in spirit: a transaction confined to one site needs no atomic
// *distributed* update — no compute/wait phases, no in-doubt window.
// Lock, read, execute (still a polytransaction if local items hold
// polyvalues), install, decide, reply. Called under mu_.
bool TxnEngine::TryLocalFastPath(TxnId txn, const TxnSpec& spec,
                                 const TxnCallback& callback, Outbox* out) {
  // Gather all local keys.
  std::set<ItemKey> all_keys;
  for (const auto& [key, site] : spec.read_set) {
    all_keys.insert(key);
  }
  for (const auto& [key, site] : spec.write_set) {
    all_keys.insert(key);
  }
  auto finish = [&](TxnResult result) {
    ReleaseLocks(txn, out);
    out->thunks.push_back([callback, result = std::move(result)] {
      callback(result);
    });
  };

  // Lock everything (immediate abort on conflict, as in the full path):
  // keys only read are shared, keys written exclusive.
  for (const ItemKey& key : all_keys) {
    const Status lock_status = items_->Lock(
        key, txn,
        spec.write_set.count(key) > 0 ? ItemStore::LockMode::kExclusive
                                      : ItemStore::LockMode::kShared);
    if (!lock_status.ok()) {
      ++metrics_.local_fast_path;
      ++metrics_.txns_aborted;
      Trace(TraceEventType::kLocalFastPath, txn);
      Trace(TraceEventType::kDecisionAbort, txn);
      TxnResult r;
      r.id = txn;
      r.disposition = TxnDisposition::kAborted;
      r.abort_reason = lock_status.message();
      finish(std::move(r));
      return true;
    }
  }

  // Read inputs and previous values.
  std::map<ItemKey, PolyValue> inputs;
  std::map<ItemKey, PolyValue> previous;
  for (const auto& [key, site] : spec.read_set) {
    Result<PolyValue> value = ReadExposed(key, out);
    if (!value.ok()) {
      ++metrics_.local_fast_path;
      ++metrics_.txns_aborted;
      Trace(TraceEventType::kLocalFastPath, txn);
      Trace(TraceEventType::kDecisionAbort, txn);
      TxnResult r;
      r.id = txn;
      r.disposition = TxnDisposition::kAborted;
      r.abort_reason = value.status().message();
      finish(std::move(r));
      return true;
    }
    inputs.emplace(key, std::move(value).value());
  }
  for (const auto& [key, site] : spec.write_set) {
    const Result<PolyValue> value = items_->Read(key);
    previous.emplace(key, value.ok() ? value.value()
                                     : PolyValue::Certain(Value::Null()));
  }

  PolyTxnOptions options;
  options.max_alternatives = config_.max_alternatives;
  const Result<PolyTxnResult> result =
      ExecutePolyTransaction(inputs, previous, spec.logic, options);
  ++metrics_.local_fast_path;
  Trace(TraceEventType::kLocalFastPath, txn);
  if (!result.ok()) {
    ++metrics_.txns_aborted;
    Trace(TraceEventType::kDecisionAbort, txn);
    TxnResult r;
    r.id = txn;
    r.disposition = TxnDisposition::kAborted;
    r.abort_reason = result.status().message();
    finish(std::move(r));
    return true;
  }
  bool any_uncertain_input = false;
  for (const auto& [key, value] : inputs) {
    any_uncertain_input |= !value.is_certain();
  }
  if (any_uncertain_input) {
    ++metrics_.polytxns;
    Trace(TraceEventType::kAlternativeFork, txn, false,
          result->alternatives_executed);
  }
  metrics_.alternatives_executed += result->alternatives_executed;

  TxnResult r;
  r.id = txn;
  r.output = result->output;
  if (!r.output.is_certain()) {
    ++metrics_.uncertain_outputs;
  }
  if (result->writes.empty()) {
    ++metrics_.txns_read_only;
    Trace(TraceEventType::kReadOnlyDone, txn);
    r.disposition = TxnDisposition::kReadOnly;
    finish(std::move(r));
    return true;
  }
  // Durable decision, then install — mirrors the full path's ordering.
  RecordDecisionDurable(txn, /*commit=*/true, out);
  Trace(TraceEventType::kDecisionCommit, txn);
  for (const auto& [key, value] : result->writes) {
    InstallValue(key, value, out);
  }
  ++metrics_.txns_committed;
  r.disposition = TxnDisposition::kCommitted;
  finish(std::move(r));
  return true;
}

void TxnEngine::CoordinatorTimeout(TxnId txn, CoordPhase expected_phase) {
  Outbox out;
  {
    MutexLock lock(&mu_);
    if (crashed_) {
      return;
    }
    auto it = coordinations_.find(txn);
    if (it == coordinations_.end() || it->second.phase != expected_phase) {
      return;  // already progressed
    }
    Decide(txn, /*commit=*/false,
           expected_phase == CoordPhase::kCollecting
               ? "timeout collecting prepare replies"
               : "timeout collecting ready votes",
           &out);
  }
  FlushOutbox(&out);
}

void TxnEngine::HandlePrepareReply(SiteId from, const Message& msg,
                                   Outbox* out) {
  auto it = coordinations_.find(msg.txn);
  if (it == coordinations_.end() ||
      it->second.phase != CoordPhase::kCollecting) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kPrepareReply));
    return;  // stale (txn decided already)
  }
  Coordination& coord = it->second;
  if (!msg.ok) {
    Decide(msg.txn, /*commit=*/false,
           StrCat("participant ", from, " refused: ", msg.error), out);
    return;
  }
  if (coord.awaiting.erase(from) == 0) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kPrepareReply));
    return;  // duplicate
  }
  for (const auto& [key, value] : msg.values) {
    coord.collected.insert_or_assign(key, value);
  }
  Trace(TraceEventType::kVoteCollected, msg.txn,
        /*flag=*/coord.awaiting.empty(), coord.awaiting.size());
  if (!coord.awaiting.empty()) {
    return;
  }
  if (config_.execution_delay <= 0) {
    ExecuteAndShip(msg.txn, &coord, out);
    return;
  }
  // Simulated computation: ship after the configured execution time.
  const TxnId txn = msg.txn;
  ScheduleGuarded(config_.execution_delay, [this, txn] {
    Outbox delayed;
    {
      MutexLock lock(&mu_);
      if (crashed_) {
        return;
      }
      auto coord_it = coordinations_.find(txn);
      if (coord_it == coordinations_.end() ||
          coord_it->second.phase != CoordPhase::kCollecting ||
          !coord_it->second.awaiting.empty()) {
        return;  // aborted or otherwise progressed meanwhile
      }
      ExecuteAndShip(txn, &coord_it->second, &delayed);
    }
    FlushOutbox(&delayed);
  });
}

void TxnEngine::ExecuteAndShip(TxnId txn, Coordination* coord, Outbox* out) {
  scheduler_->Cancel(coord->timer);
  coord->timer = 0;

  // Split the collected values into logic inputs (read set) and previous
  // values (write set); a read-write item appears in both.
  std::map<ItemKey, PolyValue> inputs;
  std::map<ItemKey, PolyValue> previous;
  bool any_uncertain_input = false;
  for (const auto& [key, owner] : coord->spec.read_set) {
    auto it = coord->collected.find(key);
    POLYV_CHECK_MSG(it != coord->collected.end(),
                    "participant did not return read item '" << key << "'");
    any_uncertain_input |= !it->second.is_certain();
    inputs.emplace(key, it->second);
  }
  for (const auto& [key, owner] : coord->spec.write_set) {
    auto it = coord->collected.find(key);
    if (it != coord->collected.end()) {
      previous.emplace(key, it->second);
    }
  }

  PolyTxnOptions options;
  options.max_alternatives = config_.max_alternatives;
  Result<PolyTxnResult> result = ExecutePolyTransaction(
      inputs, previous, coord->spec.logic, options);
  if (!result.ok()) {
    Decide(txn, /*commit=*/false, result.status().message(), out);
    return;
  }
  if (any_uncertain_input) {
    ++metrics_.polytxns;
    Trace(TraceEventType::kAlternativeFork, txn, false,
          result->alternatives_executed);
  }
  metrics_.alternatives_executed += result->alternatives_executed;
  coord->output = result->output;
  if (!coord->output.is_certain()) {
    ++metrics_.uncertain_outputs;
  }

  if (result->writes.empty()) {
    // Read-only: no atomic update needed. Release participant locks with
    // ABORT (they have nothing pending) and report success.
    TxnResult r;
    r.id = txn;
    r.disposition = TxnDisposition::kReadOnly;
    r.output = coord->output;
    ++metrics_.txns_read_only;
    Trace(TraceEventType::kReadOnlyDone, txn);
    for (SiteId site : coord->participants) {
      out->sends.emplace_back(site, MakeAbort(txn));
    }
    out->thunks.push_back([cb = coord->callback, r] { cb(r); });
    coordinations_.erase(txn);
    return;
  }

  // Ship each site its writes. A shipped polyvalue that depends on some
  // unresolved T' obliges us (§3.3) to forward T' outcomes there.
  coord->phase = CoordPhase::kWaitingReady;
  for (SiteId site : coord->participants) {
    std::map<ItemKey, PolyValue> site_writes;
    for (const auto& [key, value] : result->writes) {
      auto owner = coord->spec.write_set.find(key);
      POLYV_CHECK_MSG(owner != coord->spec.write_set.end(),
                      "logic wrote undeclared item '" << key << "'");
      if (owner->second == site) {
        for (TxnId dep : value.Dependencies()) {
          if (site != self_) {
            outcomes_->RecordDownstreamSite(dep, site);
            Wal_(WalRecord::TrackSite(dep, site), out);
          }
        }
        site_writes.emplace(key, value);
      }
    }
    coord->awaiting.insert(site);
    out->sends.emplace_back(site, MakeWriteReq(txn, std::move(site_writes)));
  }
  Trace(TraceEventType::kWriteShipped, txn, false, coord->participants.size());
  coord->timer = ScheduleGuarded(
      config_.ready_timeout,
      [this, txn] { CoordinatorTimeout(txn, CoordPhase::kWaitingReady); });
}

void TxnEngine::HandleReady(SiteId from, const Message& msg, Outbox* out) {
  auto it = coordinations_.find(msg.txn);
  if (it == coordinations_.end() ||
      it->second.phase != CoordPhase::kWaitingReady) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kReady));
    return;
  }
  if (it->second.awaiting.erase(from) == 0) {
    Trace(TraceEventType::kMsgIgnored, msg.txn, false,
          static_cast<uint64_t>(MsgType::kReady));
    return;
  }
  Trace(TraceEventType::kVoteCollected, msg.txn,
        /*flag=*/it->second.awaiting.empty(), it->second.awaiting.size());
  if (it->second.awaiting.empty()) {
    Decide(msg.txn, /*commit=*/true, "", out);
  }
}

void TxnEngine::Decide(TxnId txn, bool commit, const std::string& reason,
                       Outbox* out) {
  auto it = coordinations_.find(txn);
  POLYV_CHECK(it != coordinations_.end());
  Coordination& coord = it->second;
  if (coord.timer != 0) {
    scheduler_->Cancel(coord.timer);
    coord.timer = 0;
  }
  // Durable decision BEFORE any COMPLETE leaves: presumed abort depends
  // on commits never outrunning the log.
  const bool made_writes = coord.phase == CoordPhase::kWaitingReady;
  if (commit || made_writes) {
    RecordDecisionDurable(txn, commit, out);
  }
  if (commit) {
    ++metrics_.txns_committed;
  } else {
    ++metrics_.txns_aborted;
  }
  Trace(commit ? TraceEventType::kDecisionCommit
               : TraceEventType::kDecisionAbort,
        txn);
  for (SiteId site : coord.participants) {
    out->sends.emplace_back(site,
                            commit ? MakeComplete(txn) : MakeAbort(txn));
  }
  TxnResult r;
  r.id = txn;
  r.disposition =
      commit ? TxnDisposition::kCommitted : TxnDisposition::kAborted;
  r.abort_reason = reason;
  r.output = commit ? coord.output : PolyValue();
  out->thunks.push_back([cb = coord.callback, r] { cb(r); });
  coordinations_.erase(it);
}

void TxnEngine::HandleOutcomeRequest(SiteId from, const Message& msg,
                                     Outbox* out) {
  // An answer reports outcome knowledge: it must not outrun the log.
  out->DependOn(kWholeLog);
  if (CoordinatorOf(msg.txn) == self_) {
    auto decided = decided_.find(msg.txn);
    if (decided != decided_.end()) {
      Trace(TraceEventType::kOutcomeReplied, msg.txn, /*flag=*/true,
            from.value());
      out->sends.emplace_back(
          from, MakeOutcomeReply(msg.txn, true, decided->second));
      return;
    }
    if (coordinations_.count(msg.txn) > 0) {
      // Still in flight: genuinely unknown.
      Trace(TraceEventType::kOutcomeReplied, msg.txn, /*flag=*/false,
            from.value());
      out->sends.emplace_back(from, MakeOutcomeReply(msg.txn, false, false));
      return;
    }
    // No record: we never logged a commit, so no COMPLETE was ever sent.
    // Presumed abort.
    Trace(TraceEventType::kOutcomeReplied, msg.txn, /*flag=*/true,
          from.value());
    out->sends.emplace_back(from, MakeOutcomeReply(msg.txn, true, false));
    return;
  }
  // Not our transaction; answer from the resolved cache if we can.
  const std::optional<bool> known = outcomes_->KnownOutcome(msg.txn);
  Trace(TraceEventType::kOutcomeReplied, msg.txn, known.has_value(),
        from.value());
  out->sends.emplace_back(
      from, MakeOutcomeReply(msg.txn, known.has_value(),
                             known.value_or(false)));
}

}  // namespace polyvalue
