// The serving front door: admission control, deadline budgets, and
// budgeted retries in front of a cluster.
//
// The paper argues polyvalues keep a site AVAILABLE under failure; this
// layer is where availability becomes a measurable contract under
// OVERLOAD. Every request passes three disciplines on its way in and
// out:
//
//   1. Admission (src/svc/admission.h): a token bucket bounds the
//      admitted rate and an in-flight cap bounds concurrency. A refused
//      request fails fast with RESOURCE_EXHAUSTED — typed distinctly
//      from a timeout, so clients and dashboards can tell "the system
//      chose not to start" from "the system started and ran out of
//      time".
//   2. Deadline budget: each request carries an absolute deadline,
//      checked at submit, before every retry attempt (an attempt whose
//      backoff would land past the deadline is not started), and
//      enforced by a timer so a stuck attempt still settles as
//      DEADLINE_EXCEEDED on time.
//   3. Retry budget (tail-at-scale): aborted attempts retry with
//      decorrelated-jitter backoff, but only while the shared
//      RetryBudget allows — retries cannot amplify a conflict burst
//      into a storm.
//
// Latency from admission to settlement is recorded in a lock-free
// LogHistogram; ExportMetrics publishes `svc.*` counters and
// percentile gauges through MetricsRegistry, and a TraceSink sees
// `svc_admitted` / `svc_shed` / `svc_deadline_exceeded` / `svc_retry`
// events (docs/OBSERVABILITY.md).
//
// SimFrontDoor runs asynchronously on SimCluster's virtual clock; it is
// fully deterministic per seed, so overload behaviour is a unit test,
// not an anecdote.
#ifndef SRC_SVC_FRONT_DOOR_H_
#define SRC_SVC_FRONT_DOOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/svc/admission.h"
#include "src/system/cluster.h"

namespace polyvalue {

struct SvcOptions {
  AdmissionController::Options admission;
  RetryBudget::Options retry_budget;
  // Deadline applied when a call does not carry its own.
  double default_deadline = 1.0;  // seconds
  // Per-request attempt ceiling; the shared retry budget usually binds
  // first under load.
  int max_attempts = 8;
  // Decorrelated-jitter backoff bounds (see src/system/retry.h).
  double initial_backoff = 0.005;
  double max_backoff = 0.1;
  // Seed for the per-request jitter streams (deterministic under sim).
  uint64_t seed = 0x5caff01d;
  // Optional sink for svc_* events; null disables at zero cost.
  TraceSink* trace = nullptr;
};

// What the serving layer tells the client. `status` is OK on commit
// (including read-only), RESOURCE_EXHAUSTED when shed at admission or
// denied by the retry budget, ABORTED when every permitted attempt
// aborted, and DEADLINE_EXCEEDED when the deadline budget ran out.
//
// DEADLINE_EXCEEDED means "outcome unknown", not "no effect": the
// deadline can fire while an attempt is still in flight, and that
// attempt may yet commit. The commit protocol, not the client's timer,
// decides the outcome; look up `last_txn` (for example with
// Site::DecidedOutcome at the coordinator once the cluster settles) to
// learn it. No decision record there means presumed abort.
struct SvcResult {
  Status status;
  // The final transaction result, when an attempt reached a terminal
  // disposition (absent for sheds and for deadlines that fired before
  // any attempt resolved).
  std::optional<TxnResult> txn;
  // The id of the last attempt submitted; invalid when no attempt
  // started (sheds, deadlines spent at submit).
  TxnId last_txn;
  int attempts = 0;
  // Admission-to-settlement seconds (0 for sheds, which never enter).
  double latency = 0.0;

  bool ok() const { return status.ok(); }
};

using SvcCallback = std::function<void(const SvcResult&)>;

// Settlement counters (all post-admission; admission's own counters
// live in AdmissionController).
struct SvcCounters {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t budget_exhausted = 0;
  uint64_t retries = 0;
};

// Deterministic, asynchronous front door over SimCluster. Calls are
// settled by simulator events; drive the simulator (RunFor / RunAll /
// CallAndRun) to make progress. Single-threaded like the simulator.
class SimFrontDoor {
 public:
  SimFrontDoor(SimCluster* cluster, SvcOptions options);

  // Admission happens now (synchronously); `done` fires either
  // immediately (shed) or from a later simulator step. `done` may be
  // null when only the counters/histogram matter (open-loop load).
  void Call(size_t coordinator, std::function<TxnSpec()> make_spec,
            SvcCallback done = nullptr);
  void Call(size_t coordinator, std::function<TxnSpec()> make_spec,
            double deadline_seconds, SvcCallback done = nullptr);

  // Bulk virtual-client path (src/workload): identical admission /
  // deadline / retry machinery, but the caller supplies the client
  // identity. The backoff-jitter stream is seeded from (options.seed,
  // client_id), so millions of multiplexed virtual clients get
  // decorrelated, per-client-deterministic jitter while the front door
  // holds NO per-client state — its footprint stays O(in-flight)
  // regardless of the client population.
  void CallAsClient(uint64_t client_id, size_t coordinator,
                    std::function<TxnSpec()> make_spec,
                    double deadline_seconds, SvcCallback done = nullptr);

  // Convenience: Call and run the simulator until settlement.
  SvcResult CallAndRun(size_t coordinator,
                       std::function<TxnSpec()> make_spec);
  SvcResult CallAndRun(size_t coordinator,
                       std::function<TxnSpec()> make_spec,
                       double deadline_seconds);

  const AdmissionController& admission() const { return admission_; }
  const RetryBudget& retry_budget() const { return budget_; }
  const LogHistogram& latency() const { return latency_; }
  const SvcCounters& counters() const { return counters_; }

  // Publishes the `svc.*` metric family (docs/OBSERVABILITY.md) into
  // `registry`.
  void ExportMetrics(MetricsRegistry* registry) const;

 private:
  struct Request;

  void CallWithJitterSeed(uint64_t jitter_seed, size_t coordinator,
                          std::function<TxnSpec()> make_spec,
                          double deadline_seconds, SvcCallback done);
  void StartAttempt(const std::shared_ptr<Request>& req);
  void OnTxnDone(const std::shared_ptr<Request>& req, const TxnResult& r);
  void OnDeadline(const std::shared_ptr<Request>& req);
  void Settle(const std::shared_ptr<Request>& req, Status status,
              const TxnResult* txn);
  void Emit(TraceEventType type, SiteId site, TxnId txn, bool flag,
            uint64_t arg);

  SimCluster* cluster_;
  SvcOptions options_;
  AdmissionController admission_;
  RetryBudget budget_;
  LogHistogram latency_;
  SvcCounters counters_;
  uint64_t next_request_ = 0;  // decorrelates per-request jitter streams
};

}  // namespace polyvalue

#endif  // SRC_SVC_FRONT_DOOR_H_
