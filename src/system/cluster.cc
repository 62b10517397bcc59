#include "src/system/cluster.h"

#include "src/common/check.h"
#include "src/common/strings.h"

namespace polyvalue {

SimCluster::SimCluster(Options options)
    : options_(std::move(options)), rng_(options_.seed) {
  if (options_.engine.cluster_sites == 0) {
    // The Paxos leg needs the acceptor-set size; default to "every site
    // in this cluster is an acceptor" (2F+1 = N).
    options_.engine.cluster_sites = options_.site_count;
  }
  faults_.SetDelayRange(options_.min_delay, options_.max_delay);
  transport_ = std::make_unique<SimTransport>(&sim_, &faults_, &rng_);
  transport_->set_trace(options_.trace);
  scheduler_ = std::make_unique<SimScheduler>(&sim_);
  sites_.reserve(options_.site_count);
  for (size_t i = 0; i < options_.site_count; ++i) {
    Site::Options site_options;
    site_options.engine = options_.engine;
    site_options.default_factory = options_.default_factory;
    site_options.trace = options_.trace;
    site_options.store_shards = options_.store_shards;
    if (!options_.wal_dir.empty()) {
      site_options.wal_path = StrCat(options_.wal_dir, "/site", i, ".wal");
      site_options.wal = options_.wal;
    }
    auto site = std::make_unique<Site>(site_id(i), transport_.get(),
                                       scheduler_.get(), site_options);
    POLYV_CHECK(site->Start().ok());
    sites_.push_back(std::move(site));
  }
}

void SimCluster::Load(size_t site_index, const ItemKey& key, Value value) {
  sites_[site_index]->Load(key, std::move(value));
}

TxnId SimCluster::Submit(size_t coordinator_index, TxnSpec spec,
                         TxnCallback callback) {
  return sites_[coordinator_index]->Submit(std::move(spec),
                                           std::move(callback));
}

std::optional<TxnResult> SimCluster::SubmitAndRun(size_t coordinator_index,
                                                  TxnSpec spec,
                                                  double max_seconds) {
  std::optional<TxnResult> result;
  Submit(coordinator_index, std::move(spec),
         [&result](const TxnResult& r) { result = r; });
  const double deadline = sim_.now() + max_seconds;
  while (!result.has_value() && sim_.now() < deadline) {
    if (!sim_.Step()) {
      break;
    }
  }
  return result;
}

void SimCluster::RunFor(double seconds) { sim_.RunUntil(sim_.now() + seconds); }

void SimCluster::CrashSite(size_t index) {
  sites_[index]->Crash(&faults_);
}

void SimCluster::RecoverSite(size_t index) {
  sites_[index]->Recover(&faults_);
}

size_t SimCluster::TotalUncertainItems() const {
  size_t total = 0;
  for (const auto& site : sites_) {
    total += site->store().UncertainCount();
  }
  return total;
}

namespace {

// Sums the sites' engine metrics. With a registry, also exports each
// site's metrics and uncertain-item count under "site<i>." and the sum
// under "cluster.".
EngineMetrics SumSiteMetrics(const std::vector<std::unique_ptr<Site>>& sites,
                             MetricsRegistry* registry) {
  EngineMetrics total;
  for (size_t i = 0; i < sites.size(); ++i) {
    const EngineMetrics m = sites[i]->GetStats().engine;
    if (registry != nullptr) {
      m.ExportTo(registry, StrCat("site", i, "."));
      registry->SetCounter(StrCat("site", i, ".uncertain_items"),
                           sites[i]->store().UncertainCount());
    }
    total.Accumulate(m);
  }
  if (registry != nullptr) {
    total.ExportTo(registry, "cluster.");
  }
  return total;
}

// Per-site and cluster-wide WAL group-commit counters. The
// records-per-batch ratio is the one to watch: 1.0 means group commit
// never coalesced anything.
void ExportWalMetrics(const std::vector<std::unique_ptr<Site>>& sites,
                      MetricsRegistry* registry) {
  uint64_t batches = 0;
  uint64_t records = 0;
  for (size_t i = 0; i < sites.size(); ++i) {
    const Wal* wal = sites[i]->wal();
    if (wal == nullptr) {
      continue;
    }
    registry->SetCounter(StrCat("site", i, ".wal.batches"),
                         wal->batches_flushed());
    registry->SetCounter(StrCat("site", i, ".wal.records"),
                         wal->records_flushed());
    batches += wal->batches_flushed();
    records += wal->records_flushed();
  }
  registry->SetCounter("wal.batches", batches);
  registry->SetCounter("wal.records", records);
  registry->Gauge("wal.records_per_batch",
                  batches == 0
                      ? 0.0
                      : static_cast<double>(records) /
                            static_cast<double>(batches));
}

}  // namespace

EngineMetrics SimCluster::TotalMetrics() const {
  return SumSiteMetrics(sites_, nullptr);
}

void SimCluster::ExportMetrics(MetricsRegistry* registry) const {
  SumSiteMetrics(sites_, registry);
  registry->SetCounter("cluster.uncertain_items", TotalUncertainItems());
  registry->SetCounter("cluster.packets_sent", transport_->packets_sent());
  registry->SetCounter("cluster.packets_delivered",
                       transport_->packets_delivered());
  registry->SetCounter("cluster.packets_dropped",
                       transport_->packets_dropped());
  registry->SetCounter("cluster.bytes_sent", transport_->bytes_sent());
  registry->Gauge("cluster.sim_time_seconds", sim_.now());
  ExportWalMetrics(sites_, registry);
}

ThreadCluster::ThreadCluster(Options options)
    : options_(std::move(options)) {
  if (options_.engine.cluster_sites == 0) {
    options_.engine.cluster_sites = options_.site_count;
  }
  if (options_.transport != nullptr) {
    transport_ = options_.transport;
  } else {
    owned_transport_ =
        std::make_unique<MemTransport>(options_.faults, options_.seed);
    transport_ = owned_transport_.get();
  }
  schedulers_.reserve(options_.site_count);
  sites_.reserve(options_.site_count);
  for (size_t i = 0; i < options_.site_count; ++i) {
    Site::Options site_options;
    site_options.engine = options_.engine;
    site_options.default_factory = options_.default_factory;
    site_options.trace = options_.trace;
    site_options.store_shards = options_.store_shards;
    if (!options_.wal_dir.empty()) {
      site_options.wal_path = StrCat(options_.wal_dir, "/site", i, ".wal");
      site_options.wal = options_.wal;
    }
    schedulers_.push_back(std::make_unique<ThreadScheduler>());
    auto site = std::make_unique<Site>(site_id(i), transport_,
                                       schedulers_.back().get(), site_options);
    POLYV_CHECK(site->Start().ok());
    sites_.push_back(std::move(site));
  }
}

ThreadCluster::~ThreadCluster() {
  // Sites unregister in their destructors; transports join their threads.
  sites_.clear();
}

void ThreadCluster::Load(size_t site_index, const ItemKey& key,
                         Value value) {
  sites_[site_index]->Load(key, std::move(value));
}

TxnId ThreadCluster::Submit(size_t coordinator_index, TxnSpec spec,
                            TxnCallback callback) {
  return sites_[coordinator_index]->Submit(std::move(spec),
                                           std::move(callback));
}

std::optional<TxnResult> ThreadCluster::SubmitAndWait(
    size_t coordinator_index, TxnSpec spec, double timeout_seconds) {
  // The callback may fire on an engine thread after a timeout has already
  // returned control to the caller, so the wait state must be shared, not
  // stack-owned; notifying under the lock keeps the cv alive until the
  // waiter can actually proceed.
  struct WaitState {
    Mutex mu POLYV_MUTEX_RANK(kClientWait);
    CondVar cv;
    std::optional<TxnResult> result GUARDED_BY(mu);
  };
  auto state = std::make_shared<WaitState>();
  Submit(coordinator_index, std::move(spec), [state](const TxnResult& r) {
    MutexLock lock(&state->mu);
    state->result = r;
    state->cv.NotifyAll();
  });
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(timeout_seconds * 1e6));
  MutexLock lock(&state->mu);
  while (!state->result.has_value()) {
    if (!state->cv.WaitUntil(&state->mu, deadline)) {
      break;  // timed out; the callback may still fire later
    }
  }
  return state->result;
}

EngineMetrics ThreadCluster::TotalMetrics() const {
  return SumSiteMetrics(sites_, nullptr);
}

void ThreadCluster::ExportMetrics(MetricsRegistry* registry) const {
  SumSiteMetrics(sites_, registry);
  if (owned_transport_ != nullptr) {
    registry->SetCounter("cluster.packets_sent",
                         owned_transport_->packets_sent());
    registry->SetCounter("cluster.packets_delivered",
                         owned_transport_->packets_delivered());
  }
  ExportWalMetrics(sites_, registry);
}

}  // namespace polyvalue
