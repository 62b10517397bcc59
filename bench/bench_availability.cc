// Experiment X1 (extension): availability during failures, three ways.
//
// The paper argues (§1, §2, §5) that polyvalues let processing continue
// through the in-doubt window that blocks classic 2PC, at no cost to
// eventual consistency. Gray & Lamport's Paxos Commit attacks the same
// window from the other side: replicate the DECISION so no single
// coordinator crash can strand a prepared participant. This bench runs
// all three protocol legs against the same failure schedule — a
// coordinator site flaps, each crash stranding a participant that has
// just voted (src/workload/flap.h), and stays down for an outage of
// swept length — and quantifies the trade:
//
//   block       : classic blocking 2PC (§2.2) — prepared participants
//                 stall for the whole outage;
//   polyvalue   : the paper's mechanism — participants convert to
//                 polyvalues after wait_timeout and keep serving;
//   paxos_commit: Gray-Lamport — a standby leader finishes the commit,
//                 so the stalled window collapses to the failover
//                 timeout regardless of outage length.
//
// Series reported per protocol and outage length:
//   * commit rate during the outage (offered-load normalised),
//   * mean latency of completed transactions during the outage,
//   * the STALLED WINDOW: mean seconds a participant sat between
//     casting its vote and learning the outcome (wait-phase stats) —
//     the in-doubt exposure the three designs fight over,
//   * polyvalue installs / uncertain client outputs,
//   * post-heal audit: residual uncertainty, conservation drift
//     (nonzero drift = atomicity violation) and exactly-once answers.
//
// The load runs through the serving front door with one attempt per
// request and no admission limit, so the comparison measures the
// PROTOCOLS, not retries or shedding. A request stranded at the crashed
// coordinator settles as DEADLINE_EXCEEDED, and the drift audit looks
// up its outcome at the coordinator after the drain.
//
// With POLYV_AVAILABILITY_JSON=<path> the full grid is also written as
// one consolidated JSON artifact (schema_version 2, byte-reproducible
// across runs: the whole sweep is a pure function of the pinned seed).
// The exit status is the verdict: non-zero if any gated expectation in
// Gate() fails.
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "src/workload/driver.h"
#include "src/workload/flap.h"

namespace polyvalue {
namespace {

// The swept grid: every protocol leg at every outage length.
constexpr double kOutages[] = {2.0, 5.0, 10.0};
constexpr const char* kProtocols[] = {"block", "polyvalue", "paxos_commit"};
static_assert(std::size(kOutages) == 3 && kOutages[0] == 2.0 &&
                  kOutages[1] == 5.0 && kOutages[2] == 10.0,
              "outages {2, 5, 10} s, as the JSON config records");
static_assert(std::size(kProtocols) == 3, "all three protocol legs");

struct Cell {
  double outage;
  std::string protocol;
  ClusterWorkloadReport report;
  double commit_pct;
  double stall_mean;  // mean wait-phase seconds (vote -> outcome)
  double stall_max;
};

// Uniform all-transfer load over 96 accounts (24 per site), Poisson at
// 80/s; about a quarter of the transfers stay on one site.
ClusterWorkloadParams ParamsFor(const std::string& protocol) {
  ClusterWorkloadParams p;
  p.sites = 4;
  p.keys = 96;
  p.initial_balance = 1000;
  p.arrival.rate = 80;
  p.duration = 40;
  p.settle_time = 30;
  p.deadline = 25;
  p.svc.max_attempts = 1;
  p.seed = 1234;
  p.min_delay = 0.01;
  p.max_delay = 0.02;
  p.engine.prepare_timeout = 0.3;
  p.engine.ready_timeout = 0.3;
  p.engine.wait_timeout = 0.1;
  p.engine.inquiry_interval = 0.25;
  if (protocol == "block") {
    p.engine.policy = InDoubtPolicy::kBlock;
  } else if (protocol == "polyvalue") {
    p.engine.policy = InDoubtPolicy::kPolyvalue;
  } else {  // paxos_commit
    p.engine.leg = ProtocolLeg::kPaxosCommit;
    p.engine.paxos_failover_timeout = 0.2;
  }
  return p;
}

Cell RunCell(const std::string& protocol, double outage) {
  Cell cell;
  cell.outage = outage;
  cell.protocol = protocol;
  // Site 0 flaps from t = 4 s over a 30 s failure window: every crash
  // strands a voter, so the measured effect is the expectation rather
  // than one coin flip.
  const int cycles = static_cast<int>(30.0 / (outage + 1.0));
  cell.report = StrandingFlap(outage, cycles).Run(ParamsFor(protocol));
  const ClusterWorkloadReport& r = cell.report;
  cell.commit_pct =
      r.outage_offered == 0
          ? 0.0
          : 100.0 * static_cast<double>(r.outage_committed) /
                static_cast<double>(r.outage_offered);
  cell.stall_mean =
      r.metrics.wait_phase_count == 0
          ? 0.0
          : r.metrics.wait_phase_seconds /
                static_cast<double>(r.metrics.wait_phase_count);
  cell.stall_max = r.metrics.wait_phase_max;
  return cell;
}

// The gated expectations; returns a list of human-readable violations.
std::vector<std::string> Gate(const std::vector<Cell>& cells) {
  std::vector<std::string> problems;
  // Index the grid for the cross-protocol comparisons.
  auto find = [&cells](const std::string& protocol,
                       double outage) -> const Cell* {
    for (const Cell& c : cells) {
      if (c.protocol == protocol && c.outage == outage) {
        return &c;
      }
    }
    return nullptr;
  };
  for (const Cell& c : cells) {
    const std::string where =
        c.protocol + "/outage=" + std::to_string(static_cast<int>(c.outage));
    if (c.report.conservation_drift != 0) {
      problems.push_back(where + ": conservation drift != 0");
    }
    if (c.report.final_uncertain_items != 0) {
      problems.push_back(where + ": residual uncertainty after settle");
    }
    if (!c.report.ExactlyOnce()) {
      problems.push_back(where + ": a request was not answered exactly once");
    }
    if (c.report.outage_offered == 0) {
      problems.push_back(where + ": no traffic landed in the outage");
    }
  }
  for (double outage : kOutages) {
    const Cell* block = find("block", outage);
    const Cell* paxos = find("paxos_commit", outage);
    const Cell* poly = find("polyvalue", outage);
    if (block == nullptr || paxos == nullptr || poly == nullptr) {
      problems.push_back("grid is missing a protocol cell");
      continue;
    }
    // The tentpole claim: Paxos Commit eliminates the coordinator
    // in-doubt window. Blocking 2PC stalls a stranded participant for
    // roughly the outage; Paxos failover resolves it in O(failover
    // timeout + a recovery ballot's round trips), INDEPENDENT of the
    // outage length. The MEAN stall is dominated by the thousands of
    // healthy wait phases (~1 RTT), so both gates are on the worst
    // case: block must grow with the outage, paxos must stay under a
    // constant bound (2.5x the 0.2 s failover timeout).
    if (block->stall_max < 0.9 * outage) {
      problems.push_back(
          "outage=" + std::to_string(static_cast<int>(outage)) +
          ": blocking 2PC stalled window did not track the outage");
    }
    if (paxos->stall_max > 0.5) {
      problems.push_back(
          "outage=" + std::to_string(static_cast<int>(outage)) +
          ": paxos worst-case stalled window above the failover bound");
    }
    // Paxos never manufactures uncertainty: the decision completes
    // instead of being guessed around.
    if (paxos->report.metrics.polyvalue_installs != 0 ||
        paxos->report.uncertain_outputs != 0) {
      problems.push_back(
          "outage=" + std::to_string(static_cast<int>(outage)) +
          ": paxos leg produced polyvalues/uncertain outputs");
    }
    // Commit rate during the outage: polyvalue must beat blocking
    // (stranded locks abort later transactions); Paxos pays an extra
    // message round per commit, so it only has to stay within 10% of
    // the blocking baseline — its win is the stall column, not
    // throughput.
    if (paxos->commit_pct < 0.9 * block->commit_pct) {
      problems.push_back(
          "outage=" + std::to_string(static_cast<int>(outage)) +
          ": paxos outage commit% more than 10% below blocking 2PC");
    }
    if (poly->commit_pct < block->commit_pct) {
      problems.push_back(
          "outage=" + std::to_string(static_cast<int>(outage)) +
          ": polyvalue outage commit% below blocking 2PC");
    }
  }
  return problems;
}

void WriteJson(const std::string& path, const std::vector<Cell>& cells,
               bool pass) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 2,\n");
  std::fprintf(f, "  \"bench\": \"bench_availability\",\n");
  std::fprintf(f, "  \"config\": {\n");
  std::fprintf(f, "    \"seed\": 1234,\n");
  std::fprintf(f, "    \"sites\": 4,\n");
  std::fprintf(f, "    \"txn_rate\": 80,\n");
  std::fprintf(f, "    \"outages\": [2, 5, 10],\n");
  std::fprintf(f,
               "    \"protocols\": [\"block\", \"polyvalue\", "
               "\"paxos_commit\"]\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const ClusterWorkloadReport& r = c.report;
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"outage\": %d,\n",
                 static_cast<int>(c.outage));
    std::fprintf(f, "      \"protocol\": \"%s\",\n", c.protocol.c_str());
    std::fprintf(f, "      \"offered\": %llu,\n",
                 static_cast<unsigned long long>(r.offered));
    std::fprintf(f, "      \"committed\": %llu,\n",
                 static_cast<unsigned long long>(r.committed));
    std::fprintf(f, "      \"deadline_exceeded\": %llu,\n",
                 static_cast<unsigned long long>(r.deadline_exceeded));
    std::fprintf(f, "      \"outage_offered\": %llu,\n",
                 static_cast<unsigned long long>(r.outage_offered));
    std::fprintf(f, "      \"outage_committed\": %llu,\n",
                 static_cast<unsigned long long>(r.outage_committed));
    std::fprintf(f, "      \"outage_commit_pct\": %.3f,\n", c.commit_pct);
    std::fprintf(f, "      \"outage_latency_ms\": %.3f,\n",
                 r.outage_latency.mean() * 1e3);
    std::fprintf(f, "      \"stalled_window_mean_s\": %.6f,\n",
                 c.stall_mean);
    std::fprintf(f, "      \"stalled_window_max_s\": %.6f,\n",
                 c.stall_max);
    std::fprintf(f, "      \"stalled_window_count\": %llu,\n",
                 static_cast<unsigned long long>(
                     r.metrics.wait_phase_count));
    std::fprintf(f, "      \"paxos_failovers\": %llu,\n",
                 static_cast<unsigned long long>(
                     r.metrics.paxos_failovers));
    std::fprintf(f, "      \"paxos_recovery_ballots\": %llu,\n",
                 static_cast<unsigned long long>(
                     r.metrics.paxos_recovery_ballots));
    std::fprintf(f, "      \"polyvalue_installs\": %llu,\n",
                 static_cast<unsigned long long>(
                     r.metrics.polyvalue_installs));
    std::fprintf(f, "      \"uncertain_outputs\": %llu,\n",
                 static_cast<unsigned long long>(r.uncertain_outputs));
    std::fprintf(f, "      \"conservation_drift\": %lld,\n",
                 static_cast<long long>(r.conservation_drift));
    std::fprintf(f, "      \"exactly_once\": %s,\n",
                 r.ExactlyOnce() ? "true" : "false");
    std::fprintf(f, "      \"all_items_certain\": %s\n",
                 r.final_uncertain_items == 0 ? "true" : "false");
    std::fprintf(f, "    }%s\n", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"pass\": %s\n", pass ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int RunSweep() {
  std::printf("Availability under coordinator failure: blocking 2PC vs "
              "polyvalues vs Paxos Commit\n");
  std::printf("(4 sites, 80 txn/s offered, flapping coordinator that "
              "strands a voter\n at every crash, outage length swept; seed "
              "fixed)\n\n");
  std::printf("%-8s %-13s | %-9s %-9s %-9s | %-8s %-10s %-10s | %-9s "
              "%-10s %-7s\n",
              "outage", "protocol", "out.offr", "out.comm", "commit%",
              "lat(ms)", "stall-avg", "stall-max", "poly-inst",
              "uncertain", "drift");
  std::printf("%.*s\n", 108,
              "-----------------------------------------------------------"
              "-----------------------------------------------------------");
  std::vector<Cell> cells;
  for (double outage : kOutages) {
    for (const char* protocol : kProtocols) {
      cells.push_back(RunCell(protocol, outage));
      const Cell& c = cells.back();
      const ClusterWorkloadReport& r = c.report;
      char drift[24];
      if (r.conservation_drift == INT64_MAX) {
        std::snprintf(drift, sizeof(drift), "UNRESOLVED");
      } else {
        std::snprintf(drift, sizeof(drift), "%lld",
                      static_cast<long long>(r.conservation_drift));
      }
      std::printf("%-8.0f %-13s | %-9llu %-9llu %-9.1f | %-8.1f %-10.4f "
                  "%-10.4f | %-9llu %-10llu %-7s\n",
                  c.outage, c.protocol.c_str(),
                  static_cast<unsigned long long>(r.outage_offered),
                  static_cast<unsigned long long>(r.outage_committed),
                  c.commit_pct, r.outage_latency.mean() * 1e3,
                  c.stall_mean, c.stall_max,
                  static_cast<unsigned long long>(
                      r.metrics.polyvalue_installs),
                  static_cast<unsigned long long>(r.uncertain_outputs),
                  drift);
    }
    std::printf("\n");
  }
  std::printf(
      "The shape, quantified:\n"
      "  * block pays for every crash with a stalled window ~ the "
      "outage length;\n"
      "  * polyvalue caps the stall at wait_timeout and keeps items "
      "available\n    (polyvalue installs, later reduced — drift stays "
      "0);\n"
      "  * paxos_commit collapses the stall to the failover timeout: "
      "the decision\n    is replicated, so no polyvalues and no guess "
      "— the in-doubt window is\n    engineered away instead of worked "
      "around.\n");

  const std::vector<std::string> problems = Gate(cells);
  const bool pass = problems.empty();
  for (const std::string& p : problems) {
    std::fprintf(stderr, "GATE FAIL: %s\n", p.c_str());
  }
  const char* json_path = std::getenv("POLYV_AVAILABILITY_JSON");
  if (json_path != nullptr) {
    WriteJson(json_path, cells, pass);
  }
  std::printf("\nbench_availability: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace polyvalue

int main() { return polyvalue::RunSweep(); }
