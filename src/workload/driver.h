// ClusterWorkload: millions of virtual clients multiplexed over a
// SimFrontDoor on the deterministic simulator.
//
// A workload cell composes the three generator axes defined in this
// directory — key distribution (distribution.h) x arrival curve
// (arrival.h) x transaction-shape mix (mix.h) — and drives them through
// the PR-5 serving front door: every arrival is admitted (or shed,
// typed), carries a deadline, and retries under the shared budget.
//
// Virtual clients are an ID SPACE, not objects: each arrival draws a
// client id in [0, virtual_clients), which picks the client's home
// coordinator and seeds its per-client jitter stream
// (SimFrontDoor::CallAsClient). The driver tracks a client only while
// it has a request outstanding, so memory is O(in-flight) — bounded by
// the admission controller's concurrency cap — not O(clients);
// `peak_tracked_clients` in the report proves it, and tests/scale_test
// ramps the population 1k -> 1M against that bound.
//
// Accounting contract (the soak tests' conservation invariant): every
// generated arrival ends in EXACTLY ONE of
//     rejected_down | shed | committed | aborted |
//     deadline_exceeded | budget_exhausted
// and the report's ExactlyOnce() cross-checks the sum. Failure
// injection is the caller's business: install crash/recover/drop
// schedules on cluster().sim() between construction and Run(); Run()
// heals everything after the offered-load window and lets the system
// drain, so post-run audits (TraceAuditor quiescent invariants,
// conservation, residual uncertainty) are meaningful.
#ifndef SRC_WORKLOAD_DRIVER_H_
#define SRC_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/replica/catalog.h"
#include "src/replica/placement.h"
#include "src/replica/topology.h"
#include "src/svc/front_door.h"
#include "src/system/cluster.h"
#include "src/workload/arrival.h"
#include "src/workload/distribution.h"
#include "src/workload/mix.h"

namespace polyvalue {

struct ClusterWorkloadParams {
  // Cluster shape.
  size_t sites = 4;
  uint64_t keys = 256;
  int64_t initial_balance = 1000;
  double min_delay = 0.002;  // one-way link latency range (seconds)
  double max_delay = 0.01;
  EngineConfig engine;

  // Replication: with replication_factor > 1 the workload runs over
  // LOGICAL items instead of per-site keys. Sites are grouped into
  // `regions` equal named regions (sites must divide evenly), each of
  // the `keys` logical items gets k copies placed by the seeded
  // consistent-hash policy (spread across regions first), reads consult
  // the copy nearest the submitting coordinator, and writes fan to
  // every copy so the commit protocol keeps them identical. When a
  // trace sink is attached the driver announces replica_write /
  // replica_read digests at settlement and sweeps per-set copy digests
  // after the drain, feeding the A12/A13 audits.
  size_t replication_factor = 1;
  size_t regions = 1;

  // Workload cell.
  uint64_t virtual_clients = 1 << 20;
  KeyDistParams key_dist;
  ArrivalParams arrival;
  MixParams mix;

  // Horizon: offered load for `duration` seconds of virtual time, then
  // heal everything and settle for `settle_time` more.
  double duration = 30.0;
  double settle_time = 20.0;
  double sample_interval = 1.0;  // uncertain-item sampling cadence

  // Serving front door (admission, deadline, retry budget). svc.seed
  // and svc.trace are overridden from `seed` / `trace` below.
  SvcOptions svc;
  double deadline = 1.0;  // per-request deadline (seconds)

  uint64_t seed = 1;
  // Optional protocol trace sink shared by the cluster and the front
  // door (attach one to run the TraceAuditor over the soak).
  TraceSink* trace = nullptr;
};

struct ClusterWorkloadReport {
  // Arrival accounting (see the exactly-once contract above).
  uint64_t arrivals = 0;
  uint64_t rejected_down = 0;  // no live coordinator at arrival time
  uint64_t offered = 0;        // arrivals that reached the front door
  uint64_t shed = 0;           // admission refusals (attempts == 0)
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t budget_exhausted = 0;  // retry budget denials (attempts >= 1)
  uint64_t retries = 0;
  uint64_t unsettled = 0;  // callbacks that never fired; must be 0

  // Per-shape split of offered / committed.
  uint64_t shape_offered[kTxnShapeCount] = {};
  uint64_t shape_committed[kTxnShapeCount] = {};

  // Latency of everything admitted (seconds), from the front door.
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double goodput = 0.0;  // commits per offered-load second

  // In-doubt window statistics, sampled every sample_interval.
  double peak_uncertain_items = 0.0;
  double avg_uncertain_items = 0.0;
  uint64_t polyvalue_installs = 0;
  uint64_t polyvalues_resolved = 0;
  uint64_t final_uncertain_items = 0;

  // Conservation audit: final total balance minus (initial total +
  // committed increment deltas). A DEADLINE_EXCEEDED answer counts its
  // delta when the coordinator decided its last attempt committed.
  // INT64_MAX when any item stayed unresolved. Nonzero = atomicity
  // violation.
  int64_t conservation_drift = 0;

  // O(in-flight) evidence: the most clients simultaneously tracked and
  // the front door's peak concurrency.
  uint64_t peak_tracked_clients = 0;
  uint64_t peak_inflight = 0;

  // FNV-1a over the generated schedule (arrival time bits, client id,
  // shape, coordinator): two runs of the same params must match.
  uint64_t schedule_hash = 0;

  bool ExactlyOnce() const {
    return unsettled == 0 && arrivals == rejected_down + offered &&
           offered == shed + committed + aborted + deadline_exceeded +
                          budget_exhausted;
  }

  std::string Summary() const;
};

class ClusterWorkload {
 public:
  explicit ClusterWorkload(ClusterWorkloadParams params);

  // Expose the assembly so callers can install chaos schedules and
  // trace sinks before Run() and audit state afterwards.
  SimCluster& cluster() { return *cluster_; }
  SimFrontDoor& door() { return *door_; }
  const Keyspace& keyspace() const { return keyspace_; }

  // Replicated-mode assembly (null when replication_factor == 1).
  bool replicated() const { return catalog_ != nullptr; }
  const ReplicaCatalog* catalog() const { return catalog_.get(); }
  const RegionTopology* topology() const { return topology_.get(); }

  // Drives the offered-load window, heals every injected fault, settles,
  // and reports. Call once.
  ClusterWorkloadReport Run();

 private:
  ClusterWorkloadParams params_;
  Keyspace keyspace_;
  KeyDistribution key_dist_;
  TxnMix mix_;
  std::unique_ptr<RegionTopology> topology_;
  std::unique_ptr<ReplicaCatalog> catalog_;
  std::unique_ptr<SimCluster> cluster_;
  std::unique_ptr<SimFrontDoor> door_;
  bool ran_ = false;
};

}  // namespace polyvalue

#endif  // SRC_WORKLOAD_DRIVER_H_
