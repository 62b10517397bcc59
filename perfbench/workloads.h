// Workloads of the wall-clock benchmark: cluster shape, key
// distribution, transaction mix and load model, plus the seeded request
// generator each client thread draws from.
//
// Every workload moves money between accounts. Transfers conserve the
// total balance and audits only read, so the benchmark can check the
// final database against the initial one after every run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/txn/engine.h"
#include "src/txn/txn_types.h"
#include "src/workload/distribution.h"

namespace perfbench {

using polyvalue::EngineConfig;
using polyvalue::ItemKey;
using polyvalue::KeyDistParams;

struct Workload {
  std::string name;
  size_t sites = 4;
  bool tcp = false;  // TcpTransport on loopback, else MemTransport
  bool wal = false;  // per-site WAL under group commit
  size_t items = 4096;
  KeyDistParams keys;
  // A transfer's two items always live on different sites.
  bool cross_site_transfers = false;
  // Share of requests that are read-only audits, and items each reads.
  double audit_share = 0;
  size_t audit_items = 2;
  // Closed loop: client threads. Zero selects the open loop below.
  size_t clients = 4;
  // Open loop: Poisson arrivals per second from one generator thread.
  double arrival_rate = 0;
  // Injected one-way message delay (MemTransport only); 0 = none.
  double delay_min = 0;
  double delay_max = 0;
  EngineConfig engine;
  // Requests run during set-up, before the measured window.
  size_t warmup_requests = 2000;
  // The traced run checks every transaction's message count (and, with
  // a WAL, the log record count) against the analytic 2PC figures. Off
  // where outcome traffic depends on timing.
  bool exact_counts = true;
};

// The named workload, or null.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

inline constexpr int64_t kInitialBalance = 1000000;

ItemKey KeyOf(uint64_t index);
// Inverse of KeyOf.
uint64_t IndexOf(const ItemKey& key);
inline size_t SiteOf(const Workload& w, uint64_t index) {
  return index % w.sites;
}

// One generated request: a transfer {from, to} or a read-only audit.
struct RequestInput {
  bool audit = false;
  std::vector<uint64_t> items;
  int64_t amount = 0;
};

// Deterministic per seed: the same seed yields the same request stream.
class RequestGenerator {
 public:
  RequestGenerator(const Workload& w, uint64_t seed);
  RequestInput Next();
  polyvalue::Rng& rng() { return rng_; }

 private:
  // Draws an item not in `taken`; with `other_site`, also on a site
  // none of `taken` lives on.
  uint64_t Draw(const std::vector<uint64_t>& taken, bool other_site);

  const Workload& w_;
  polyvalue::KeyDistribution dist_;
  polyvalue::Rng rng_;
};

// Accumulated time inside transaction logic (traced runs only).
struct LogicClock {
  std::atomic<uint64_t> ns{0};
  std::atomic<uint64_t> calls{0};
};

// The transaction for `input`; its logic reports to `clock` when set.
polyvalue::TxnSpec BuildSpec(const Workload& w, const RequestInput& input,
                             LogicClock* clock);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
