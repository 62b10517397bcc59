#include "src/workload/driver.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/replica/consistency.h"

namespace polyvalue {

namespace {

// FNV-1a, folded a word at a time — cheap enough to hash every arrival.
uint64_t HashMix(uint64_t h, uint64_t word) {
  h ^= word;
  return h * 0x100000001b3ULL;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Parses a replicated shape's "<logical>=<int>;..." output (the
// contract documented on MakeReplicatedShapeSpec) and emits one `type`
// event per entry, digesting the Int value the copies hold.
void AnnounceEntries(const std::string& encoded, TraceEventType type,
                     SiteId site, double now, TraceSink* trace) {
  size_t pos = 0;
  while (pos < encoded.size()) {
    size_t semi = encoded.find(';', pos);
    if (semi == std::string::npos) {
      semi = encoded.size();
    }
    const std::string entry = encoded.substr(pos, semi - pos);
    pos = semi + 1;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      continue;
    }
    TraceEvent event;
    event.time = now;
    event.type = type;
    event.site = site;
    event.key = entry.substr(0, eq);
    event.flag = type == TraceEventType::kReplicaRead;
    event.arg = DigestValue(
        Value::Int(std::strtoll(entry.c_str() + eq + 1, nullptr, 10)));
    trace->Emit(event);
  }
}

}  // namespace

std::string ClusterWorkloadReport::Summary() const {
  std::ostringstream oss;
  oss << "arrivals=" << arrivals << " rejected_down=" << rejected_down
      << " offered=" << offered << " shed=" << shed
      << " committed=" << committed << " aborted=" << aborted
      << " deadline=" << deadline_exceeded
      << " budget=" << budget_exhausted << " retries=" << retries
      << " unsettled=" << unsettled << " goodput=" << goodput
      << " p99=" << p99 << " peak_uncertain=" << peak_uncertain_items
      << " drift=" << conservation_drift
      << " peak_tracked=" << peak_tracked_clients
      << " exactly_once=" << (ExactlyOnce() ? "yes" : "NO");
  return oss.str();
}

ClusterWorkload::ClusterWorkload(ClusterWorkloadParams params)
    : params_(params),
      keyspace_(params.sites, params.keys),
      key_dist_(params.key_dist, params.keys),
      mix_(params.mix) {
  POLYV_CHECK_GT(params_.virtual_clients, 0u);
  // Every admitted request settles by its deadline; the settle window
  // must cover the last admission's deadline or Run() would return with
  // callbacks still pending.
  POLYV_CHECK_GT(params_.settle_time, params_.deadline);
  SimCluster::Options options;
  options.site_count = params_.sites;
  options.engine = params_.engine;
  options.seed = params_.seed;
  options.min_delay = params_.min_delay;
  options.max_delay = params_.max_delay;
  options.trace = params_.trace;
  cluster_ = std::make_unique<SimCluster>(options);
  if (params_.replication_factor > 1) {
    POLYV_CHECK_GT(params_.regions, 0u);
    POLYV_CHECK_EQ(params_.sites % params_.regions, 0u);
    topology_ = std::make_unique<RegionTopology>(RegionTopology::SymmetricGrid(
        params_.regions, params_.sites / params_.regions));
    PlacementPolicy policy;
    policy.replication_factor = params_.replication_factor;
    policy.seed = params_.seed ^ 0x9e3779b97f4a7c15ULL;
    catalog_ = std::make_unique<ReplicaCatalog>(ReplicaCatalog::Uniform(
        ReplicaPlacement(*topology_, policy), "g/", params_.keys));
    catalog_->LoadAll(cluster_.get(), Value::Int(params_.initial_balance),
                      params_.trace);
  } else {
    keyspace_.LoadAll(cluster_.get(), params_.initial_balance);
  }

  SvcOptions svc = params_.svc;
  svc.default_deadline = params_.deadline;
  svc.seed = params_.seed ^ 0x5caff01dULL;
  svc.trace = params_.trace;
  door_ = std::make_unique<SimFrontDoor>(cluster_.get(), svc);
}

ClusterWorkloadReport ClusterWorkload::Run() {
  POLYV_CHECK(!ran_);
  ran_ = true;

  ClusterWorkloadReport report;
  report.schedule_hash = 0xcbf29ce484222325ULL;  // FNV offset basis
  Simulator& sim = cluster_->sim();

  ArrivalProcess arrivals(params_.arrival, params_.seed ^ 0xa221ca1ULL);
  Rng pick_rng(params_.seed ^ 0x70b0109adULL);

  // Clients tracked only while a request is outstanding: id -> number
  // of requests in flight (an open-loop client can overlap itself).
  std::unordered_map<uint64_t, uint32_t> tracked;

  // DEADLINE_EXCEEDED means "outcome unknown": the attempt in flight
  // when the deadline fired may still commit. Each such answer is kept
  // and resolved against the coordinator's decision after the drain.
  struct UnknownOutcome {
    size_t coordinator;
    TxnId txn;
    int64_t delta;
  };
  std::vector<UnknownOutcome> unknown;

  // The arrival pump: one scheduled event per arrival, self-extending,
  // so the event queue never holds more than the next arrival.
  std::function<void(double)> pump = [&](double at) {
    sim.At(at, [&, at] {
      const double next = arrivals.Next();
      if (next <= params_.duration) {
        pump(next);
      }
      ++report.arrivals;
      const uint64_t client = pick_rng.NextBelow(params_.virtual_clients);
      const TxnShapeKind shape = mix_.Pick(&pick_rng);
      // Home coordinator with failover: first live site at or after the
      // client's home. A fully dark cluster rejects the arrival.
      // (Resolved before the spec is built — the replicated shapes aim
      // reads at the coordinator's copy; the probe loop draws nothing,
      // so the unreplicated rng schedule is unchanged.)
      size_t coordinator = static_cast<size_t>(client % params_.sites);
      size_t probes = 0;
      while (probes < params_.sites &&
             cluster_->site(coordinator).crashed()) {
        coordinator = (coordinator + 1) % params_.sites;
        ++probes;
      }
      int64_t delta = 0;
      TxnSpec spec =
          catalog_ != nullptr
              ? MakeReplicatedShapeSpec(shape, *catalog_,
                                        cluster_->site_id(coordinator),
                                        key_dist_, &pick_rng, &delta)
              : MakeShapeSpec(shape, keyspace_, *cluster_, key_dist_,
                              &pick_rng, &delta);
      report.schedule_hash = HashMix(report.schedule_hash, DoubleBits(at));
      report.schedule_hash = HashMix(report.schedule_hash, client);
      report.schedule_hash = HashMix(
          report.schedule_hash, static_cast<uint64_t>(shape) * 31 +
                                    static_cast<uint64_t>(coordinator));
      if (probes == params_.sites) {
        ++report.rejected_down;
        return;
      }
      ++report.offered;
      ++report.shape_offered[static_cast<int>(shape)];
      ++report.unsettled;
      const uint64_t count = ++tracked[client];
      (void)count;
      report.peak_tracked_clients = std::max(
          report.peak_tracked_clients,
          static_cast<uint64_t>(tracked.size()));
      auto spec_holder = std::make_shared<TxnSpec>(std::move(spec));
      door_->CallAsClient(
          client, coordinator, [spec_holder] { return *spec_holder; },
          params_.deadline,
          [this, &report, &tracked, &unknown, client, shape, delta,
           coordinator](const SvcResult& r) {
            --report.unsettled;
            auto it = tracked.find(client);
            if (it != tracked.end() && --it->second == 0) {
              tracked.erase(it);
            }
            if (r.ok()) {
              ++report.committed;
              ++report.shape_committed[static_cast<int>(shape)];
              report.conservation_drift -= delta;  // expected delta; the
              // final-balance scan below adds the observed total back.
              if (catalog_ != nullptr && params_.trace != nullptr &&
                  r.txn.has_value()) {
                const PolyValue& out = r.txn->output;
                const TraceEventType type =
                    shape == TxnShapeKind::kReadOnly
                        ? TraceEventType::kReplicaRead
                        : TraceEventType::kReplicaWrite;
                const double now = cluster_->sim().now();
                const SiteId coord = cluster_->site_id(coordinator);
                if (out.is_certain()) {
                  if (out.certain_value().is_string()) {
                    AnnounceEntries(out.certain_value().string_value(), type,
                                    coord, now, params_.trace);
                  }
                } else if (type == TraceEventType::kReplicaWrite) {
                  // Committed, but the client saw the output while the
                  // outcome was still in doubt. Over-announce every
                  // branch the copies might settle to: extra write
                  // announcements can only mask an A13 violation, never
                  // invent one, so the audit stays sound. Uncertain
                  // READS are simply not announced (A13 constrains only
                  // certain reads).
                  for (const Value& v : out.PossibleValues()) {
                    if (v.is_string()) {
                      AnnounceEntries(v.string_value(), type, coord, now,
                                      params_.trace);
                    }
                  }
                }
              }
            } else if (r.status.code() == StatusCode::kDeadlineExceeded) {
              ++report.deadline_exceeded;
              if (r.attempts > 0) {
                unknown.push_back({coordinator, r.last_txn, delta});
              }
            } else if (r.status.code() == StatusCode::kResourceExhausted) {
              if (r.attempts == 0) {
                ++report.shed;
              } else {
                ++report.budget_exhausted;
              }
            } else {
              ++report.aborted;
            }
          });
      report.peak_inflight =
          std::max(report.peak_inflight,
                   static_cast<uint64_t>(door_->admission().inflight()));
    });
  };
  const double first = arrivals.Next();
  if (first <= params_.duration) {
    pump(first);
  }

  // Uncertain-item sampler (the in-doubt window series).
  const double horizon = params_.duration + params_.settle_time;
  double sample_sum = 0.0;
  uint64_t sample_count = 0;
  std::function<void()> sample = [&] {
    const double p =
        static_cast<double>(cluster_->TotalUncertainItems());
    report.peak_uncertain_items = std::max(report.peak_uncertain_items, p);
    sample_sum += p;
    ++sample_count;
    if (sim.now() + params_.sample_interval <= horizon) {
      sim.After(params_.sample_interval, sample);
    }
  };
  sim.After(params_.sample_interval, sample);

  // Offered load, then heal everything and drain.
  cluster_->RunFor(params_.duration);
  for (size_t s = 0; s < params_.sites; ++s) {
    if (cluster_->site(s).crashed()) {
      cluster_->RecoverSite(s);
    }
  }
  cluster_->faults().SetDropProbability(0.0);
  cluster_->faults().HealAll();
  cluster_->RunFor(params_.settle_time);

  // Collect.
  report.retries = door_->counters().retries;
  report.avg_uncertain_items =
      sample_count == 0 ? 0.0 : sample_sum / static_cast<double>(sample_count);
  report.final_uncertain_items = cluster_->TotalUncertainItems();
  const LogHistogram& latency = door_->latency();
  report.p50 = latency.Percentile(50);
  report.p95 = latency.Percentile(95);
  report.p99 = latency.Percentile(99);
  report.p999 = latency.Percentile(99.9);
  report.goodput =
      static_cast<double>(report.committed) / params_.duration;

  const EngineMetrics metrics = cluster_->TotalMetrics();
  report.polyvalue_installs = metrics.polyvalue_installs;
  report.polyvalues_resolved = metrics.polyvalues_resolved;

  // Late commits: a deadline answer whose attempt the coordinator
  // decided to commit applied its delta too. No decision record at the
  // coordinator is presumed abort, which applied nothing.
  for (const UnknownOutcome& u : unknown) {
    const Site& coordinator = cluster_->site(u.coordinator);
    if (coordinator.DecidedOutcome(u.txn).value_or(false)) {
      report.conservation_drift -= u.delta;
    }
  }

  // Conservation: final total == initial total + committed deltas.
  // report.conservation_drift already holds -sum(committed deltas).
  const int64_t initial_total =
      params_.initial_balance * static_cast<int64_t>(params_.keys);
  int64_t final_total = 0;
  bool totals_exact = true;
  if (catalog_ != nullptr) {
    // Replicated: the logical total is the sum over LOGICAL items, each
    // counted once through its first-listed copy (copies are identical
    // when consistent; the A12 digest sweep below catches divergence).
    for (size_t i = 0; i < catalog_->size(); ++i) {
      const ReplicaSet& set = catalog_->at(i);
      const SiteId site = set.sites().front();
      const Result<PolyValue> copy =
          cluster_->site(site.value() - 1).Peek(set.KeyAt(site));
      if (copy.ok() && copy.value().is_certain() &&
          copy.value().certain_value().is_int()) {
        final_total += copy.value().certain_value().int_value();
      } else {
        totals_exact = false;
      }
    }
  } else {
    for (size_t s = 0; s < params_.sites; ++s) {
      cluster_->site(s).store().ForEach(
          [&](const ItemKey&, const PolyValue& value) {
            if (value.is_certain() && value.certain_value().is_int()) {
              final_total += value.certain_value().int_value();
            } else {
              totals_exact = false;
            }
          });
    }
  }
  if (totals_exact) {
    report.conservation_drift += final_total - initial_total;
  } else {
    report.conservation_drift = INT64_MAX;
  }

  // A12 evidence: after the healed drain, sweep every replica set's
  // copy digests into the trace — the auditor flags any set whose
  // copies failed to converge once no outcome was left in doubt.
  if (catalog_ != nullptr && params_.trace != nullptr) {
    for (size_t i = 0; i < catalog_->size(); ++i) {
      EmitReplicaDigests(cluster_.get(), catalog_->at(i), params_.trace);
    }
  }
  return report;
}

}  // namespace polyvalue
