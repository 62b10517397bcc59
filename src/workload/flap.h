// A flapping coordinator whose every crash strands a voter.
//
// The availability benches measure what a coordinator crash costs a
// participant that has already voted (§2.2): blocking 2PC holds it for
// the whole outage, polyvalues release it after the in-doubt window,
// Paxos Commit finishes the decision at a standby leader. A crash at a
// fixed instant only shows that cost when a vote happens to be in
// flight then, so a verdict built on it depends on the seed.
//
// StrandingFlap removes the luck. Site 0 flaps: from each planned crash
// instant on, the flap watches the protocol trace, and at the first
// prepared vote (2PC kReadySent or Paxos kPaxosVote) that another site
// casts for a transaction site 0 coordinates, it crashes site 0. The
// crash runs as a zero-delay simulator event, so it lands before the
// vote's message is delivered, and the simulated transport drops a
// packet addressed to a crashed site: the voter is stranded by
// construction. The site recovers `outage` seconds after its crash. The
// first crash is planned at t = 4 s and each later one 1 s after the
// previous recovery; size `cycles` so the last recovery falls inside
// the offered-load window.
#ifndef SRC_WORKLOAD_FLAP_H_
#define SRC_WORKLOAD_FLAP_H_

#include "src/obs/trace.h"
#include "src/system/cluster.h"
#include "src/workload/driver.h"

namespace polyvalue {

class StrandingFlap : public TraceSink {
 public:
  // `cycles` crashes of site 0, each `outage` seconds long.
  StrandingFlap(double outage, int cycles)
      : outage_(outage), cycles_(cycles) {}
  // Simulator events hold `this`.
  StrandingFlap(const StrandingFlap&) = delete;
  StrandingFlap& operator=(const StrandingFlap&) = delete;

  // Runs `params` as a ClusterWorkload with this flap installed as its
  // trace sink; a sink already in params.trace still sees every event.
  // Call once.
  ClusterWorkloadReport Run(ClusterWorkloadParams params);

  void Emit(const TraceEvent& event) override;

  int crashes() const { return crashes_; }

 private:
  void Crash();

  const double outage_;
  const int cycles_;
  TraceSink* forward_ = nullptr;
  SimCluster* cluster_ = nullptr;
  bool armed_ = false;
  int crashes_ = 0;
};

}  // namespace polyvalue

#endif  // SRC_WORKLOAD_FLAP_H_
