// Cluster assemblies: N sites wired to a transport, with failure
// injection and synchronous-submit conveniences.
//
// SimCluster — deterministic: sites share one discrete-event simulator
//              and a SimTransport; a run is reproducible from its seed.
// ThreadCluster — real concurrency: MemTransport (or any Transport) plus
//              one wall-clock ThreadScheduler per site, so each site
//              arms its timeouts on its own timer thread and mutex;
//              used by stress/integration tests, perfbench and the TCP
//              demo.
#ifndef SRC_SYSTEM_CLUSTER_H_
#define SRC_SYSTEM_CLUSTER_H_

#include <memory>
#include <optional>
#include <vector>

#include <string>

#include "src/event/simulator.h"
#include "src/net/mem_transport.h"
#include "src/net/sim_transport.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/system/site.h"

namespace polyvalue {

class SimCluster {
 public:
  struct Options {
    size_t site_count = 3;
    EngineConfig engine;
    uint64_t seed = 42;
    ItemStore::DefaultFactory default_factory;
    // Network latency range (seconds).
    double min_delay = 0.001;
    double max_delay = 0.003;
    // Optional protocol trace sink, shared by every site's engine and
    // the transport. Null (the default) disables tracing at zero cost.
    TraceSink* trace = nullptr;
    // When non-empty, site i logs to "<wal_dir>/site<i>.wal" with the
    // `wal` knobs below (group commit etc.); empty disables durability,
    // as before.
    std::string wal_dir;
    Wal::Options wal;
    size_t store_shards = ItemStore::kDefaultShards;
  };

  explicit SimCluster(Options options);

  size_t size() const { return sites_.size(); }
  Site& site(size_t index) { return *sites_[index]; }
  SiteId site_id(size_t index) const { return SiteId(index + 1); }

  Simulator& sim() { return sim_; }
  FaultPlan& faults() { return faults_; }
  SimTransport& transport() { return *transport_; }
  Rng& rng() { return rng_; }

  // Seeds an item at the site that owns it.
  void Load(size_t site_index, const ItemKey& key, Value value);

  // Submits at `coordinator_index`; the callback fires during sim steps.
  TxnId Submit(size_t coordinator_index, TxnSpec spec, TxnCallback callback);

  // Submits and runs the simulator until the callback fires (or
  // `max_seconds` of virtual time pass — then returns nullopt).
  std::optional<TxnResult> SubmitAndRun(size_t coordinator_index,
                                        TxnSpec spec,
                                        double max_seconds = 60.0);

  // Advances virtual time.
  void RunFor(double seconds);
  void RunAll() { sim_.RunAll(); }

  void CrashSite(size_t index);
  void RecoverSite(size_t index);

  // Total uncertain items across all sites — the cluster-wide P(t).
  size_t TotalUncertainItems() const;

  // Aggregated engine metrics across sites.
  EngineMetrics TotalMetrics() const;

  // Exports per-site metrics (prefix "site<i>.") plus cluster-wide
  // aggregates (prefix "cluster.") and transport counters into
  // `registry`.
  void ExportMetrics(MetricsRegistry* registry) const;

 private:
  Options options_;
  Simulator sim_;
  FaultPlan faults_;
  Rng rng_;
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<SimScheduler> scheduler_;
  std::vector<std::unique_ptr<Site>> sites_;
};

class ThreadCluster {
 public:
  struct Options {
    size_t site_count = 3;
    EngineConfig engine;
    uint64_t seed = 42;
    ItemStore::DefaultFactory default_factory;
    FaultPlan* faults = nullptr;  // optional shared fault plan
    // When set, sites use this externally owned transport (e.g. a
    // TcpTransport) instead of an internal MemTransport.
    Transport* transport = nullptr;
    // Optional protocol trace sink shared by every site's engine. Must
    // be thread-safe (VectorTraceSink and CountingTraceSink are).
    TraceSink* trace = nullptr;
    // When non-empty, site i logs to "<wal_dir>/site<i>.wal" with the
    // `wal` knobs (so benches can compare per-record fsync vs group
    // commit); empty disables durability.
    std::string wal_dir;
    Wal::Options wal;
    size_t store_shards = ItemStore::kDefaultShards;
  };

  explicit ThreadCluster(Options options);
  ~ThreadCluster();

  size_t size() const { return sites_.size(); }
  Site& site(size_t index) { return *sites_[index]; }
  SiteId site_id(size_t index) const { return SiteId(index + 1); }
  Transport& transport() { return *transport_; }

  void Load(size_t site_index, const ItemKey& key, Value value);

  TxnId Submit(size_t coordinator_index, TxnSpec spec, TxnCallback callback);

  // Submits and blocks the calling thread until the result arrives or
  // `timeout_seconds` elapse.
  std::optional<TxnResult> SubmitAndWait(size_t coordinator_index,
                                         TxnSpec spec,
                                         double timeout_seconds = 10.0);

  EngineMetrics TotalMetrics() const;

  // Same layout as SimCluster::ExportMetrics, minus transport counters.
  void ExportMetrics(MetricsRegistry* registry) const;

 private:
  Options options_;
  std::unique_ptr<MemTransport> owned_transport_;
  Transport* transport_;  // owned or external
  // schedulers_[i] is site i's; declared before sites_ so it outlives
  // them.
  std::vector<std::unique_ptr<ThreadScheduler>> schedulers_;
  std::vector<std::unique_ptr<Site>> sites_;
};

}  // namespace polyvalue

#endif  // SRC_SYSTEM_CLUSTER_H_
