#include "src/svc/front_door.h"

#include <utility>

#include "src/common/check.h"
#include "src/system/retry.h"

namespace polyvalue {

struct SimFrontDoor::Request {
  size_t coordinator = 0;
  SiteId site;
  std::function<TxnSpec()> make_spec;
  SvcCallback done;
  double admit_time = 0.0;
  double deadline = 0.0;  // absolute virtual time
  Simulator::EventId deadline_timer = 0;
  int attempts = 0;
  double prev_backoff = 0.0;
  bool settled = false;
  TxnId last_txn;
  Rng jitter;

  explicit Request(uint64_t seed) : jitter(seed) {}
};

SimFrontDoor::SimFrontDoor(SimCluster* cluster, SvcOptions options)
    : cluster_(cluster),
      options_(options),
      admission_(options.admission),
      budget_(options.retry_budget) {}

void SimFrontDoor::Emit(TraceEventType type, SiteId site, TxnId txn,
                        bool flag, uint64_t arg) {
  if (options_.trace == nullptr) {
    return;
  }
  TraceEvent event;
  event.time = cluster_->sim().now();
  event.type = type;
  event.site = site;
  event.txn = txn;
  event.flag = flag;
  event.arg = arg;
  options_.trace->Emit(event);
}

void SimFrontDoor::Call(size_t coordinator,
                        std::function<TxnSpec()> make_spec,
                        SvcCallback done) {
  Call(coordinator, std::move(make_spec), options_.default_deadline,
       std::move(done));
}

void SimFrontDoor::Call(size_t coordinator,
                        std::function<TxnSpec()> make_spec,
                        double deadline_seconds, SvcCallback done) {
  CallWithJitterSeed(options_.seed + next_request_++, coordinator,
                     std::move(make_spec), deadline_seconds,
                     std::move(done));
}

void SimFrontDoor::CallAsClient(uint64_t client_id, size_t coordinator,
                                std::function<TxnSpec()> make_spec,
                                double deadline_seconds, SvcCallback done) {
  // SplitMix64 decorrelates adjacent client ids into unrelated jitter
  // streams (client n and n+1 would otherwise share most of their
  // xoshiro seed material).
  SplitMix64 mix(options_.seed ^ client_id);
  CallWithJitterSeed(mix.Next(), coordinator, std::move(make_spec),
                     deadline_seconds, std::move(done));
}

void SimFrontDoor::CallWithJitterSeed(uint64_t jitter_seed,
                                      size_t coordinator,
                                      std::function<TxnSpec()> make_spec,
                                      double deadline_seconds,
                                      SvcCallback done) {
  const double now = cluster_->sim().now();
  const SiteId site = cluster_->site_id(coordinator);
  bool rate_limited = false;
  Status admit = admission_.Admit(now, &rate_limited);
  if (!admit.ok()) {
    Emit(TraceEventType::kSvcShed, site, TxnId(), rate_limited,
         admission_.inflight());
    if (done) {
      SvcResult result;
      result.status = std::move(admit);
      done(result);
    }
    return;
  }
  auto req = std::make_shared<Request>(jitter_seed);
  req->coordinator = coordinator;
  req->site = site;
  req->make_spec = std::move(make_spec);
  req->done = std::move(done);
  req->admit_time = now;
  req->deadline = now + deadline_seconds;
  req->prev_backoff = options_.initial_backoff;
  Emit(TraceEventType::kSvcAdmitted, site, TxnId(),
       /*flag=*/false, admission_.inflight());
  if (deadline_seconds <= 0.0) {
    // The budget was spent before we ever saw the request.
    Settle(req, DeadlineExceededError("deadline expired at submit"),
           nullptr);
    return;
  }
  req->deadline_timer = cluster_->sim().After(
      deadline_seconds, [this, req] { OnDeadline(req); });
  StartAttempt(req);
}

void SimFrontDoor::StartAttempt(const std::shared_ptr<Request>& req) {
  if (req->settled) {
    return;
  }
  ++req->attempts;
  if (req->attempts == 1) {
    budget_.OnAttempt();  // first attempts earn retry budget
  }
  req->last_txn = cluster_->Submit(
      req->coordinator, req->make_spec(),
      [this, req](const TxnResult& r) { OnTxnDone(req, r); });
}

void SimFrontDoor::OnTxnDone(const std::shared_ptr<Request>& req,
                             const TxnResult& r) {
  if (req->settled) {
    return;  // deadline fired while this attempt was in flight
  }
  if (r.committed()) {
    Settle(req, OkStatus(), &r);
    return;
  }
  if (req->attempts >= options_.max_attempts) {
    Settle(req, AbortedError("attempts exhausted: " + r.abort_reason), &r);
    return;
  }
  if (!budget_.TrySpend()) {
    Settle(req, ResourceExhaustedError("retry budget exhausted"), &r);
    return;
  }
  const double now = cluster_->sim().now();
  const double backoff = DecorrelatedJitterBackoff(
      &req->jitter, options_.initial_backoff, options_.max_backoff,
      req->prev_backoff);
  req->prev_backoff = backoff;
  if (now + backoff >= req->deadline) {
    // Tail-at-scale discipline: never start work that cannot finish
    // inside the deadline budget.
    Settle(req,
           DeadlineExceededError("no deadline budget left for a retry"),
           &r);
    return;
  }
  ++counters_.retries;
  Emit(TraceEventType::kSvcRetry, req->site, r.id, /*flag=*/true,
       static_cast<uint64_t>(req->attempts));
  cluster_->sim().After(backoff, [this, req] { StartAttempt(req); });
}

void SimFrontDoor::OnDeadline(const std::shared_ptr<Request>& req) {
  if (req->settled) {
    return;
  }
  Settle(req, DeadlineExceededError("deadline fired"), nullptr);
}

void SimFrontDoor::Settle(const std::shared_ptr<Request>& req,
                          Status status, const TxnResult* txn) {
  POLYV_CHECK(!req->settled);
  req->settled = true;
  if (req->deadline_timer != 0) {
    cluster_->sim().Cancel(req->deadline_timer);  // no-op if firing now
  }
  const double latency = cluster_->sim().now() - req->admit_time;
  latency_.Add(latency);
  admission_.Release();
  const TxnId txn_id = txn != nullptr ? txn->id : req->last_txn;
  if (status.ok()) {
    ++counters_.committed;
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    ++counters_.deadline_exceeded;
    Emit(TraceEventType::kSvcDeadlineExceeded, req->site, txn_id,
         /*flag=*/false, static_cast<uint64_t>(req->attempts));
  } else if (status.code() == StatusCode::kResourceExhausted) {
    ++counters_.budget_exhausted;
  } else {
    ++counters_.aborted;
  }
  SvcResult result;
  result.status = std::move(status);
  if (txn != nullptr) {
    result.txn = *txn;
  }
  result.last_txn = req->last_txn;
  result.attempts = req->attempts;
  result.latency = latency;
  if (req->done) {
    // Move the callback out so settling drops the last owning
    // reference cycle (req holds done, done's captures may hold req).
    SvcCallback done = std::move(req->done);
    done(result);
  }
}

SvcResult SimFrontDoor::CallAndRun(size_t coordinator,
                                   std::function<TxnSpec()> make_spec) {
  return CallAndRun(coordinator, std::move(make_spec),
                    options_.default_deadline);
}

SvcResult SimFrontDoor::CallAndRun(size_t coordinator,
                                   std::function<TxnSpec()> make_spec,
                                   double deadline_seconds) {
  std::optional<SvcResult> out;
  Call(coordinator, std::move(make_spec), deadline_seconds,
       [&out](const SvcResult& r) { out = r; });
  // The deadline timer guarantees settlement while events remain.
  while (!out.has_value() && cluster_->sim().Step()) {
  }
  POLYV_CHECK(out.has_value());
  return *out;
}

void SimFrontDoor::ExportMetrics(MetricsRegistry* registry) const {
  registry->SetCounter("svc.admitted", admission_.admitted());
  registry->SetCounter("svc.shed", admission_.shed());
  registry->SetCounter("svc.shed_rate", admission_.shed_rate());
  registry->SetCounter("svc.shed_capacity", admission_.shed_capacity());
  registry->SetCounter("svc.committed", counters_.committed);
  registry->SetCounter("svc.aborted", counters_.aborted);
  registry->SetCounter("svc.deadline_exceeded", counters_.deadline_exceeded);
  registry->SetCounter("svc.retry_budget_denied", counters_.budget_exhausted);
  registry->SetCounter("svc.retries", counters_.retries);
  registry->SetCounter("svc.latency_count", latency_.count());
  registry->Gauge("svc.inflight",
                  static_cast<double>(admission_.inflight()));
  registry->Gauge("svc.retry_budget_balance", budget_.balance());
  registry->Gauge("svc.latency_p50", latency_.Percentile(50));
  registry->Gauge("svc.latency_p95", latency_.Percentile(95));
  registry->Gauge("svc.latency_p99", latency_.Percentile(99));
  registry->Gauge("svc.latency_p999", latency_.Percentile(99.9));
}

}  // namespace polyvalue
