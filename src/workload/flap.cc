#include "src/workload/flap.h"

#include "src/common/check.h"

namespace polyvalue {

namespace {

constexpr double kFirstCrash = 4.0;  // seconds
constexpr double kUpGap = 1.0;       // seconds up between outages

}  // namespace

ClusterWorkloadReport StrandingFlap::Run(ClusterWorkloadParams params) {
  POLYV_CHECK(cluster_ == nullptr);
  forward_ = params.trace;
  params.trace = this;
  ClusterWorkload workload(params);
  cluster_ = &workload.cluster();
  if (cycles_ > 0) {
    cluster_->sim().At(kFirstCrash, [this] { armed_ = true; });
  }
  return workload.Run();
}

void StrandingFlap::Emit(const TraceEvent& event) {
  if (forward_ != nullptr) {
    forward_->Emit(event);
  }
  if (!armed_ || (event.type != TraceEventType::kReadySent &&
                  event.type != TraceEventType::kPaxosVote)) {
    return;
  }
  const SiteId victim = cluster_->site_id(0);
  if (event.site == victim ||
      (event.txn.value() >> kTxnSiteShift) != victim.value()) {
    return;
  }
  armed_ = false;
  cluster_->sim().After(0, [this] { Crash(); });
}

void StrandingFlap::Crash() {
  Simulator& sim = cluster_->sim();
  cluster_->CrashSite(0);
  ++crashes_;
  sim.After(outage_, [this, &sim] {
    // The workload may have healed the site already, at the end of its
    // offered-load window.
    if (cluster_->site(0).crashed()) {
      cluster_->RecoverSite(0);
    }
    if (crashes_ < cycles_) {
      sim.After(kUpGap, [this] { armed_ = true; });
    }
  });
}

}  // namespace polyvalue
