#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>

namespace perfbench {
namespace {

using polyvalue::KeyDistKind;
using polyvalue::LockWaitPolicy;
using polyvalue::SiteId;
using polyvalue::TxnEffect;
using polyvalue::TxnReads;
using polyvalue::TxnSpec;
using polyvalue::Value;

// An in-doubt window far above any hop these runs see, so the poly
// layer stays idle unless a participant stalls for a second.
EngineConfig Patient() {
  EngineConfig config;
  config.wait_timeout = 1.0;
  return config;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  // Protocol CPU and thread hand-offs: 4 sites, no delay, no WAL,
  // cross-site transfers spread uniformly so conflicts are rare.
  Workload transfer;
  transfer.name = "mem_transfer";
  transfer.sites = 4;
  transfer.items = 4096;
  transfer.keys.kind = KeyDistKind::kUniform;
  transfer.cross_site_transfers = true;
  transfer.clients = 4;
  transfer.engine = Patient();
  all.push_back(transfer);

  // Real sockets and forced log writes: 3 sites on loopback TCP, each
  // with a group-commit WAL; 80% two-item audits beside 20% transfers,
  // zipfian, so reads and writes meet on one lock plane.
  Workload durable;
  durable.name = "tcp_durable";
  durable.sites = 3;
  durable.tcp = true;
  durable.wal = true;
  durable.items = 4096;
  durable.keys.kind = KeyDistKind::kZipfian;
  durable.keys.zipf_theta = 0.99;
  durable.audit_share = 0.8;
  durable.audit_items = 2;
  durable.clients = 4;
  durable.engine = Patient();
  all.push_back(durable);

  // The paper's path: the in-doubt window (0.1 ms) is shorter than one
  // message hop (0.2-0.5 ms), so nearly every distributed commit installs
  // polyvalues, releases its locks and is reduced by COMPLETE later.
  Workload indoubt;
  indoubt.name = "mem_indoubt";
  indoubt.sites = 4;
  indoubt.items = 512;
  indoubt.keys.kind = KeyDistKind::kHotSet;
  indoubt.keys.hot_fraction = 0.25;
  indoubt.keys.hot_probability = 0.8;
  indoubt.cross_site_transfers = true;
  indoubt.audit_share = 0.1;
  indoubt.audit_items = 4;
  indoubt.clients = 0;
  indoubt.arrival_rate = 3000;
  indoubt.delay_min = 0.0002;
  indoubt.delay_max = 0.0005;
  indoubt.engine.wait_timeout = 0.0001;
  indoubt.engine.lock_wait = LockWaitPolicy::kWaitDie;
  indoubt.warmup_requests = 600;
  indoubt.exact_counts = false;
  all.push_back(indoubt);
  return all;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : Workloads()) {
    names.push_back(w.name);
  }
  return names;
}

constexpr char kKeyPrefix[] = "acct";

ItemKey KeyOf(uint64_t index) { return kKeyPrefix + std::to_string(index); }

uint64_t IndexOf(const ItemKey& key) {
  return std::stoull(key.substr(sizeof(kKeyPrefix) - 1));
}

RequestGenerator::RequestGenerator(const Workload& w, uint64_t seed)
    : w_(w), dist_(w.keys, w.items), rng_(seed) {}

uint64_t RequestGenerator::Draw(const std::vector<uint64_t>& taken,
                                bool other_site) {
  for (;;) {
    const uint64_t index = dist_.Pick(&rng_);
    const bool clash =
        std::any_of(taken.begin(), taken.end(), [&](uint64_t t) {
          return t == index || (other_site && SiteOf(w_, t) == SiteOf(w_, index));
        });
    if (!clash) {
      return index;
    }
  }
}

RequestInput RequestGenerator::Next() {
  RequestInput input;
  input.audit = rng_.NextBool(w_.audit_share);
  const size_t count = input.audit ? w_.audit_items : 2;
  const bool other_site = !input.audit && w_.cross_site_transfers;
  while (input.items.size() < count) {
    input.items.push_back(Draw(input.items, other_site));
  }
  if (!input.audit) {
    input.amount = rng_.NextInt(1, 100);
  }
  return input;
}

TxnSpec BuildSpec(const Workload& w, const RequestInput& input,
                  LogicClock* clock) {
  TxnSpec spec;
  std::vector<ItemKey> keys;
  for (uint64_t index : input.items) {
    keys.push_back(KeyOf(index));
    const SiteId site(SiteOf(w, index) + 1);
    if (input.audit) {
      spec.Read(keys.back(), site);
    } else {
      spec.ReadWrite(keys.back(), site);
    }
  }
  const bool audit = input.audit;
  const int64_t amount = input.amount;
  spec.Logic([keys, audit, amount, clock](const TxnReads& reads) {
    const auto start = clock != nullptr ? std::chrono::steady_clock::now()
                                        : std::chrono::steady_clock::time_point();
    TxnEffect effect;
    if (audit) {
      int64_t sum = 0;
      for (const ItemKey& key : keys) {
        sum += reads.IntAt(key);
      }
      effect.output = Value::Int(sum);
    } else {
      const int64_t from = reads.IntAt(keys[0]) - amount;
      effect.writes[keys[0]] = Value::Int(from);
      effect.writes[keys[1]] = Value::Int(reads.IntAt(keys[1]) + amount);
      effect.output = Value::Int(from);
    }
    if (clock != nullptr) {
      clock->ns.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count(),
          std::memory_order_relaxed);
      clock->calls.fetch_add(1, std::memory_order_relaxed);
    }
    return effect;
  });
  return spec;
}

}  // namespace perfbench
