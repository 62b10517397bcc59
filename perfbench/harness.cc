#include "perfbench/harness.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "src/net/mem_transport.h"
#include "src/net/tcp_transport.h"
#include "src/store/item_store.h"
#include "src/store/outcome_table.h"
#include "src/store/recovery.h"
#include "src/store/wal.h"
#include "src/txn/messages.h"

namespace perfbench {
namespace {

using polyvalue::MsgType;
using polyvalue::PolyValue;
using polyvalue::ThreadCluster;
using polyvalue::TxnResult;
using polyvalue::Value;

using SteadyClock = std::chrono::steady_clock;

SteadyClock::time_point Epoch() {
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return epoch;
}

SteadyClock::time_point TimeAt(double seconds) {
  return Epoch() + std::chrono::duration_cast<SteadyClock::duration>(
                       std::chrono::duration<double>(seconds));
}

AbortCause Classify(const std::string& reason) {
  // A participant refused its PREPARE, or the local fast path found an
  // item locked.
  if (reason.find("refused") != std::string::npos ||
      reason.find("locked") != std::string::npos) {
    return AbortCause::kLock;
  }
  if (reason.find("timeout") != std::string::npos) {
    return AbortCause::kTimeout;
  }
  if (reason.find("down") != std::string::npos) {
    return AbortCause::kDown;
  }
  return AbortCause::kOther;
}

size_t Slot(MsgType type) { return static_cast<size_t>(type); }

std::set<size_t> SitesOf(const Workload& w, const RequestInput& input) {
  std::set<size_t> sites;
  for (uint64_t index : input.items) {
    sites.insert(SiteOf(w, index));
  }
  return sites;
}

// The messages one committed transaction of this shape carries. The
// coordinator is the first item's site, so a request whose items share
// one site takes the local fast path and sends nothing; otherwise each
// participant (the coordinator included, through the transport) sees
// one message of each type of its round trip.
MsgCounts ExpectedMessages(const Workload& w, const RequestInput& input) {
  MsgCounts counts{};
  const uint32_t n = static_cast<uint32_t>(SitesOf(w, input).size());
  if (n == 1) {
    return counts;
  }
  counts[Slot(MsgType::kPrepare)] = n;
  counts[Slot(MsgType::kPrepareReply)] = n;
  if (input.audit) {
    // Read-only: ABORT only releases the participants' locks.
    counts[Slot(MsgType::kAbort)] = n;
  } else {
    counts[Slot(MsgType::kWriteReq)] = n;
    counts[Slot(MsgType::kReady)] = n;
    counts[Slot(MsgType::kComplete)] = n;
  }
  return counts;
}

// The most an aborted transaction may carry: any prefix of the write
// round, then ABORT; never COMPLETE or outcome traffic.
MsgCounts AbortBound(const Workload& w, const RequestInput& input) {
  MsgCounts counts{};
  const uint32_t n = static_cast<uint32_t>(SitesOf(w, input).size());
  if (n == 1) {
    return counts;
  }
  for (MsgType type : {MsgType::kPrepare, MsgType::kPrepareReply,
                       MsgType::kWriteReq, MsgType::kReady, MsgType::kAbort}) {
    counts[Slot(type)] = n;
  }
  return counts;
}

std::string Describe(const MsgCounts& counts) {
  std::ostringstream out;
  for (size_t i = 1; i < kMsgSlots; ++i) {
    out << (i > 1 ? "," : "") << counts[i];
  }
  return out.str();
}

}  // namespace

double Clock() {
  return std::chrono::duration<double>(SteadyClock::now() - Epoch()).count();
}

// ---- Deployment ----

Deployment::Deployment(const Workload& w, uint64_t seed, std::string wal_dir,
                       bool traced)
    : traced_(traced), wal_dir_(std::move(wal_dir)) {
  if (w.tcp) {
    inner_ = std::make_unique<polyvalue::TcpTransport>();
  } else if (w.delay_max > 0) {
    faults_.SetDelayRange(w.delay_min, w.delay_max);
    inner_ = std::make_unique<polyvalue::MemTransport>(&faults_, seed);
  } else {
    inner_ = std::make_unique<polyvalue::MemTransport>(nullptr, seed);
  }
  ThreadCluster::Options options;
  options.site_count = w.sites;
  options.engine = w.engine;
  options.seed = seed;
  options.transport = inner_.get();
  if (traced_) {
    tracing_ = std::make_unique<TracingTransport>(inner_.get(), w.sites);
    options.transport = tracing_.get();
    options.trace = &phases_;
  }
  if (w.wal) {
    std::filesystem::create_directories(wal_dir_);
    options.wal_dir = wal_dir_;
    options.wal.sync_policy = polyvalue::Wal::SyncPolicy::kGroupCommit;
  }
  cluster_ = std::make_unique<ThreadCluster>(std::move(options));
  for (uint64_t i = 0; i < w.items; ++i) {
    cluster_->Load(SiteOf(w, i), KeyOf(i), Value::Int(kInitialBalance));
  }
}

// ---- LoadGen ----

LoadGen::LoadGen(const Workload& w, uint64_t seed, Deployment* deployment)
    : w_(w), deployment_(deployment) {
  polyvalue::Rng seeds(seed);
  const size_t streams = w.clients > 0 ? w.clients : 1;
  for (size_t i = 0; i < streams; ++i) {
    streams_.push_back(std::make_unique<Stream>(w, seeds.NextUint64()));
  }
}

void LoadGen::RunCount(size_t count) {
  Run(count, std::numeric_limits<double>::infinity());
}

void LoadGen::RunFor(double seconds) {
  measuring_ = true;
  window_start_ = Clock();
  window_end_ = window_start_ + seconds;
  Run(std::numeric_limits<size_t>::max(), window_end_);
  measuring_ = false;
}

void LoadGen::Run(size_t count, double end) {
  std::vector<std::thread> threads;
  if (w_.clients > 0) {
    const size_t n = streams_.size();
    for (size_t i = 0; i < n; ++i) {
      const size_t quota = count == std::numeric_limits<size_t>::max()
                               ? count
                               : count / n + (i < count % n ? 1 : 0);
      Stream* stream = streams_[i].get();
      threads.emplace_back(
          [this, stream, quota, end] { Closed(stream, quota, end); });
    }
  } else {
    Stream* stream = streams_.front().get();
    threads.emplace_back([this, stream, count, end] {
      Open(stream, count, end);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

void LoadGen::Closed(Stream* stream, size_t count, double end) {
  constexpr auto kRequestTimeout = std::chrono::seconds(10);
  for (size_t i = 0; i < count && Clock() < end; ++i) {
    // The deque never moves its elements, so callbacks may hold `request`.
    Request& request = stream->requests.emplace_back();
    request.input = stream->gen.Next();
    request.due = Clock();
    Submit(stream, &request);
    std::unique_lock<std::mutex> lock(stream->mu);
    if (!stream->cv.wait_for(lock, kRequestTimeout,
                             [&] { return request.settled.load(); })) {
      return;  // left pending: Settle() reports it
    }
  }
}

void LoadGen::Open(Stream* stream, size_t count, double end) {
  const double mean_gap = 1.0 / w_.arrival_rate;
  double next = Clock();
  for (size_t i = 0; i < count && next < end; ++i) {
    std::this_thread::sleep_until(TimeAt(next));
    Request& request = stream->requests.emplace_back();
    request.input = stream->gen.Next();
    request.due = next;
    if (measuring_) {
      lag_ms_.push_back((Clock() - next) * 1e3);
    }
    Submit(stream, &request);
    next += stream->gen.rng().NextExponential(mean_gap);
  }
}

void LoadGen::Submit(Stream* stream, Request* request) {
  polyvalue::TxnSpec spec =
      BuildSpec(w_, request->input, deployment_->logic());
  auto callback = [stream, request](const TxnResult& result) {
    if (request->callbacks.fetch_add(1) != 0) {
      return;  // a second callback: CheckAccounting reports it
    }
    request->done = Clock();
    if (result.committed()) {
      request->outcome = Outcome::kCommitted;
      request->uncertain_output = !result.output.is_certain();
    } else {
      request->cause = Classify(result.abort_reason);
      request->outcome = request->cause == AbortCause::kDown
                             ? Outcome::kRefused
                             : Outcome::kAborted;
    }
    {
      std::lock_guard<std::mutex> lock(stream->mu);
      request->settled.store(true);
    }
    stream->cv.notify_all();
  };
  const bool traced = deployment_->tracing() != nullptr;
  const double start = traced ? Clock() : 0;
  request->txn = deployment_->cluster().Submit(
      SiteOf(w_, request->input.items.front()), std::move(spec),
      std::move(callback));
  if (traced) {
    request->submit_us = (Clock() - start) * 1e6;
  }
}

bool LoadGen::Settle(double timeout_seconds) {
  const auto deadline = TimeAt(Clock() + timeout_seconds);
  for (const auto& stream : streams_) {
    for (const Request& request : stream->requests) {
      std::unique_lock<std::mutex> lock(stream->mu);
      if (!stream->cv.wait_until(lock, deadline,
                                 [&] { return request.settled.load(); })) {
        return false;
      }
    }
  }
  return true;
}

// ---- statistics ----

WindowStats Summarize(const LoadGen& load) {
  WindowStats st;
  const double start = load.window_start();
  const double end = load.window_end();
  uint64_t finished = 0;
  std::vector<double> latency_ms;
  load.ForEach([&](const Request& r) {
    const bool settled = r.settled.load();
    const bool due = r.due >= start && r.due < end;
    if (due) {
      ++st.attempted;
      if (!settled) {
        ++st.unsettled;
      } else if (r.outcome == Outcome::kCommitted) {
        ++st.committed;
        st.uncertain += r.uncertain_output ? 1 : 0;
      } else if (r.outcome == Outcome::kRefused) {
        ++st.refused;
      } else {
        ++st.aborted;
      }
      if (settled) {
        st.lock_aborts += r.cause == AbortCause::kLock ? 1 : 0;
        st.timeout_aborts += r.cause == AbortCause::kTimeout ? 1 : 0;
        st.down_aborts += r.cause == AbortCause::kDown ? 1 : 0;
      }
      if (r.submit_us > 0) {
        st.submit_us.push_back(r.submit_us);
      }
    }
    if (!settled || r.outcome != Outcome::kCommitted) {
      return;
    }
    // Goodput counts commits by when they finished; latency covers the
    // requests due in the window, however late they finished.
    finished += r.done >= start && r.done < end ? 1 : 0;
    if (due) {
      latency_ms.push_back((r.done - r.due) * 1e3);
    }
  });
  st.goodput_tps = static_cast<double>(finished) / (end - start);
  st.latency_samples = latency_ms.size();
  st.latency_p50_ms = Quantile(latency_ms, 0.50);
  st.latency_p99_ms = Quantile(latency_ms, 0.99);
  return st;
}

// ---- checks ----

void CheckDrained(LoadGen* load, Deployment* deployment,
                  std::vector<std::string>* errors) {
  constexpr double kDrainSeconds = 30;
  if (!load->Settle(kDrainSeconds)) {
    errors->push_back("requests still unsettled after the drain deadline");
  }
  // A client hears the decision before the participants apply it, so
  // settling is not enough: wait until no item is locked (no participant
  // is still waiting for COMPLETE or ABORT) and none is uncertain.
  ThreadCluster& cluster = deployment->cluster();
  const double deadline = Clock() + kDrainSeconds;
  size_t uncertain = 0;
  size_t locked = 0;
  int quiet_polls = 0;
  while (quiet_polls < 2) {
    if (Clock() > deadline) {
      errors->push_back(std::to_string(uncertain) + " items uncertain and " +
                        std::to_string(locked) +
                        " locked after the drain deadline");
      return;
    }
    uncertain = 0;
    locked = 0;
    for (size_t i = 0; i < cluster.size(); ++i) {
      uncertain += cluster.site(i).store().UncertainCount();
      locked += cluster.site(i).store().locked_count();
    }
    quiet_polls = uncertain == 0 && locked == 0 ? quiet_polls + 1 : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void CheckAccounting(const LoadGen& load, Deployment* deployment,
                     std::vector<std::string>* errors) {
  uint64_t total = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t refused = 0;
  uint64_t unsettled = 0;
  uint64_t duplicates = 0;
  load.ForEach([&](const Request& r) {
    ++total;
    duplicates += r.callbacks.load() > 1 ? 1 : 0;
    if (!r.settled.load()) {
      ++unsettled;
    } else if (r.outcome == Outcome::kCommitted) {
      ++committed;
    } else if (r.outcome == Outcome::kRefused) {
      ++refused;
    } else if (r.outcome == Outcome::kAborted) {
      ++aborted;
    }
  });
  if (duplicates > 0) {
    errors->push_back(std::to_string(duplicates) +
                      " requests were called back more than once");
  }
  if (committed + aborted + refused + unsettled != total) {
    errors->push_back("requests not counted exactly once");
  }
  const polyvalue::EngineMetrics m = deployment->cluster().TotalMetrics();
  if (m.txns_submitted != total ||
      m.txns_committed + m.txns_read_only != committed ||
      m.txns_aborted != aborted) {
    std::ostringstream out;
    out << "engine counts disagree with the clients: submitted "
        << m.txns_submitted << "/" << total << ", committed "
        << m.txns_committed + m.txns_read_only << "/" << committed
        << ", aborted " << m.txns_aborted << "/" << aborted;
    errors->push_back(out.str());
  }
}

std::vector<int64_t> CheckConservation(const Workload& w,
                                       const LoadGen& load,
                                       Deployment* deployment,
                                       std::vector<std::string>* errors) {
  // What the clients were told: every committed transfer applied, every
  // aborted one not.
  std::vector<int64_t> expected(w.items, kInitialBalance);
  load.ForEach([&](const Request& r) {
    if (!r.input.audit && r.outcome == Outcome::kCommitted) {
      expected[r.input.items[0]] -= r.input.amount;
      expected[r.input.items[1]] += r.input.amount;
    }
  });
  std::vector<int64_t> balances(w.items, 0);
  int64_t total = 0;
  uint64_t differing = 0;
  std::string example;
  for (uint64_t i = 0; i < w.items; ++i) {
    const auto value =
        deployment->cluster().site(SiteOf(w, i)).Peek(KeyOf(i));
    if (!value.ok() || !value.value().is_certain() ||
        !value.value().certain_value().is_int()) {
      errors->push_back("item " + KeyOf(i) + " is missing or not certain");
      return balances;
    }
    balances[i] = value.value().certain_value().int_value();
    total += balances[i];
    if (balances[i] != expected[i] && differing++ == 0) {
      example = KeyOf(i) + " holds " + std::to_string(balances[i]) +
                ", committed transfers imply " + std::to_string(expected[i]);
    }
  }
  const int64_t initial = static_cast<int64_t>(w.items) * kInitialBalance;
  if (total != initial) {
    errors->push_back("total balance " + std::to_string(total) +
                      " != " + std::to_string(initial));
  }
  if (differing > 0) {
    errors->push_back(std::to_string(differing) +
                      " balances disagree with the committed transfers, "
                      "e.g. " + example);
  }
  return balances;
}

double CheckDurability(const Workload& w, Deployment* deployment,
                       const std::vector<int64_t>& final_balances,
                       std::vector<std::string>* errors) {
  if (!w.wal) {
    return 0;
  }
  deployment->Shutdown();
  const double start = Clock();
  // Loading seeds items without logging them: an item no transaction
  // wrote is still at its initial balance.
  std::vector<int64_t> recovered(w.items, kInitialBalance);
  for (size_t site = 0; site < w.sites; ++site) {
    const std::string path =
        deployment->wal_dir() + "/site" + std::to_string(site) + ".wal";
    auto records = polyvalue::Wal::ReplayFile(path);
    if (!records.ok()) {
      errors->push_back("cannot replay " + path + ": " +
                        records.status().message());
      continue;
    }
    polyvalue::ItemStore store;
    polyvalue::OutcomeTable outcomes;
    const polyvalue::Status status =
        polyvalue::RecoverSiteState(records.value(), &store, &outcomes);
    if (!status.ok()) {
      errors->push_back("cannot recover site " + std::to_string(site) +
                        ": " + status.message());
      continue;
    }
    store.ForEach([&](const ItemKey& key, const PolyValue& value) {
      const uint64_t index = IndexOf(key);
      if (!value.is_certain() || !value.certain_value().is_int() ||
          index >= w.items) {
        errors->push_back("recovered item " + key + " is not a certain "
                          "balance");
        return;
      }
      recovered[index] = value.certain_value().int_value();
    });
  }
  const double seconds = Clock() - start;
  int64_t total = 0;
  uint64_t differing = 0;
  for (uint64_t i = 0; i < w.items; ++i) {
    total += recovered[i];
    differing += recovered[i] != final_balances[i] ? 1 : 0;
  }
  const int64_t expected = static_cast<int64_t>(w.items) * kInitialBalance;
  if (total != expected || differing > 0) {
    errors->push_back("WAL replay: total " + std::to_string(total) +
                      " (expected " + std::to_string(expected) + "), " +
                      std::to_string(differing) +
                      " items differ from the live cluster");
  }
  return seconds;
}

void WaitQuiet(Deployment* deployment, std::vector<std::string>* errors) {
  const double deadline = Clock() + 10;
  int quiet_polls = 0;
  while (quiet_polls < 3) {
    if (Clock() > deadline) {
      errors->push_back("packets still in flight after the drain");
      return;
    }
    quiet_polls = deployment->tracing()->in_flight() == 0 ? quiet_polls + 1
                                                         : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void CheckMessageCounts(const Workload& w, const LoadGen& load,
                        const TracingTransport::Totals& net,
                        std::vector<std::string>* errors) {
  if (net.unparsed > 0) {
    errors->push_back(std::to_string(net.unparsed) +
                      " packets without a 2PC header");
  }
  std::unordered_map<uint64_t, const Request*> requests;
  load.ForEach([&](const Request& r) { requests[r.txn.value()] = &r; });
  uint64_t strangers = 0;
  for (const auto& [txn, counts] : net.by_txn) {
    strangers += requests.count(txn) == 0 ? 1 : 0;
  }
  if (strangers > 0) {
    errors->push_back(std::to_string(strangers) +
                      " transactions on the wire that no client issued");
  }
  uint64_t mismatches = 0;
  std::string example;
  for (const auto& [txn, request] : requests) {
    auto it = net.by_txn.find(txn);
    const MsgCounts seen = it == net.by_txn.end() ? MsgCounts{} : it->second;
    bool ok = true;
    MsgCounts expected{};
    if (request->outcome == Outcome::kCommitted) {
      expected = ExpectedMessages(w, request->input);
      ok = seen == expected;
    } else {
      expected = AbortBound(w, request->input);
      for (size_t i = 0; i < kMsgSlots; ++i) {
        ok = ok && seen[i] <= expected[i];
      }
    }
    if (!ok) {
      if (mismatches++ == 0) {
        example = "T" + std::to_string(txn) + " sent {" + Describe(seen) +
                  "}, expected {" + Describe(expected) + "}";
      }
    }
  }
  if (mismatches > 0) {
    errors->push_back(std::to_string(mismatches) +
                      " transactions with unexpected message counts, e.g. " +
                      example);
  }
}

// Records one committed transaction appends, summed over sites (see
// src/txn/engine_*.cc): the coordinator logs its decision; each
// participant logs its prepared writes, then on COMPLETE one item write
// per written key, the prepared-resolved marker and the learned outcome.
// The local fast path logs the decision and the writes. Reads log
// nothing. Values stay certain, so no dependency records appear. An
// abort adds one outcome record at each site that learns it without a
// live participation (it refused, or the ABORT overtook its PREPARE);
// the caller counts those from the trace.
uint64_t ExpectedWalRecords(const Workload& w, const RequestInput& input) {
  if (input.audit) {
    return 0;
  }
  const uint64_t participants = SitesOf(w, input).size();
  const uint64_t writes = input.items.size();
  if (participants == 1) {
    return 1 + writes;
  }
  return 3 * participants + 1 + writes;
}

}  // namespace perfbench
