// Ablation: the in-doubt window length, three ways.
//
// §6 notes the polyvalue mechanism "can be combined with other atomic
// distributed update protocols to decrease the chance that polyvalues
// will be created." Two dials live in that design space:
//
//   * the engine's wait_timeout — how long a 2PC participant behaves
//     like blocking 2PC before switching to polyvalues
//     (wait_timeout -> 0: polyvalues on the slightest hiccup;
//      wait_timeout -> inf: classic blocking 2PC);
//   * Paxos Commit's paxos_failover_timeout — how long a prepared RM
//     waits for the decision before nudging a standby leader to finish
//     the tally (the window is then CLOSED by consensus, not worked
//     around with polyvalues).
//
// Both sweeps run the same flapping-coordinator schedule, whose every
// crash strands a participant that has just voted (src/workload/flap.h),
// through the serving front door with one attempt per request. The 2PC
// sweep trades lock-hold time against polyvalue creation; the Paxos
// sweep shows the worst-case stalled window tracking the failover
// timeout itself — the knob bounds the exposure directly, and no
// polyvalues ever appear. The blocking baseline anchors both tables.
//
// The exit status is the verdict: non-zero if any row drifts, leaves an
// item uncertain after the drain or answers a request other than
// exactly once, or if the blocking anchor's worst stall falls short of
// 0.9x the outage (every crash strands a voter, so it cannot).
#include <cstdio>
#include <string>
#include <vector>

#include "src/workload/driver.h"
#include "src/workload/flap.h"

namespace polyvalue {
namespace {

constexpr double kOutage = 2.0;

ClusterWorkloadParams BaseParams() {
  ClusterWorkloadParams p;
  p.sites = 4;
  p.keys = 96;
  p.initial_balance = 1000;
  p.arrival.rate = 80;
  p.duration = 40;
  p.settle_time = 30;
  p.deadline = 25;
  p.svc.max_attempts = 1;
  p.seed = 4321;
  p.min_delay = 0.01;
  p.max_delay = 0.02;
  p.engine.prepare_timeout = 0.3;
  p.engine.ready_timeout = 0.3;
  p.engine.inquiry_interval = 0.25;
  return p;
}

ClusterWorkloadParams PolyParams(double wait_timeout) {
  ClusterWorkloadParams p = BaseParams();
  p.engine.wait_timeout = wait_timeout;
  p.engine.policy = InDoubtPolicy::kPolyvalue;
  return p;
}

ClusterWorkloadParams BlockParams() {
  ClusterWorkloadParams p = BaseParams();
  p.engine.wait_timeout = 0.1;
  p.engine.policy = InDoubtPolicy::kBlock;
  return p;
}

ClusterWorkloadParams PaxosParams(double failover_timeout) {
  ClusterWorkloadParams p = BaseParams();
  p.engine.leg = ProtocolLeg::kPaxosCommit;
  p.engine.paxos_failover_timeout = failover_timeout;
  return p;
}

// Prints one row, appends its violations to `problems` and returns it.
ClusterWorkloadReport Row(const char* label, double dial,
                          const ClusterWorkloadParams& params,
                          std::vector<std::string>* problems) {
  // Ten 2 s outages of site 0, the first planned at t = 4 s.
  const ClusterWorkloadReport r = StrandingFlap(kOutage, 10).Run(params);
  const double commit_pct =
      r.outage_offered == 0
          ? 0.0
          : 100.0 * static_cast<double>(r.outage_committed) /
                static_cast<double>(r.outage_offered);
  std::printf("%-13s %-9.2f | %-9llu %-9.1f | %-10.4f | %-9llu %-10llu "
              "%-7lld\n",
              label, dial,
              static_cast<unsigned long long>(r.outage_committed),
              commit_pct, r.metrics.wait_phase_max,
              static_cast<unsigned long long>(r.metrics.polyvalue_installs),
              static_cast<unsigned long long>(r.uncertain_outputs),
              static_cast<long long>(r.conservation_drift));
  char where[48];
  std::snprintf(where, sizeof(where), "%s/%.2f", label, dial);
  if (r.conservation_drift != 0) {
    problems->push_back(std::string(where) + ": conservation drift != 0");
  }
  if (r.final_uncertain_items != 0) {
    problems->push_back(std::string(where) +
                        ": residual uncertainty after settle");
  }
  if (!r.ExactlyOnce()) {
    problems->push_back(std::string(where) +
                        ": a request was not answered exactly once");
  }
  return r;
}

}  // namespace
}  // namespace polyvalue

int main() {
  using namespace polyvalue;
  std::printf("Ablation: in-doubt window dials under a flapping "
              "coordinator\n");
  std::printf("(2PC sweeps wait_timeout; Paxos Commit sweeps "
              "paxos_failover_timeout;\n blocking 2PC anchors both — its "
              "window is the whole outage)\n\n");
  std::printf("%-13s %-9s | %-9s %-9s | %-10s | %-9s %-10s %-7s\n",
              "protocol", "dial (s)", "out.comm", "commit%", "stall-max",
              "poly-inst", "uncertain", "drift");
  std::printf("%.*s\n", 84,
              "-----------------------------------------------------------"
              "-------------------------");
  std::vector<std::string> problems;
  const ClusterWorkloadReport block =
      Row("block", 0.0, BlockParams(), &problems);
  if (block.metrics.wait_phase_max < 0.9 * kOutage) {
    problems.push_back("block: worst stall did not track the outage");
  }
  std::printf("\n");
  for (double window : {0.05, 0.1, 0.2, 0.5, 1.0, 3.0}) {
    Row("polyvalue", window, PolyParams(window), &problems);
  }
  std::printf("\n");
  for (double failover : {0.1, 0.2, 0.5, 1.0}) {
    Row("paxos_commit", failover, PaxosParams(failover), &problems);
  }
  std::printf(
      "\nExpected shape: the blocking anchor's worst-case stall is the\n"
      "outage length. Shorter 2PC windows create more polyvalues and\n"
      "commit at least as much during outages; longer windows converge\n"
      "on the blocking baseline. The Paxos stall-max tracks the failover\n"
      "timeout (plus a recovery ballot's round trips) with zero\n"
      "polyvalues — the window is closed by consensus rather than\n"
      "tolerated. Drift is 0 on every row — every dial trades\n"
      "performance, never correctness. This is the §6 'combine with\n"
      "other protocols' design space.\n");
  for (const std::string& p : problems) {
    std::fprintf(stderr, "FAIL: %s\n", p.c_str());
  }
  std::printf("\nbench_indoubt_window: %s\n",
              problems.empty() ? "PASS" : "FAIL");
  return problems.empty() ? 0 : 1;
}
