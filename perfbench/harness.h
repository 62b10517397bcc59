// Cluster assembly, load generation and the correctness checks of the
// wall-clock benchmark.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/ledger.h"
#include "perfbench/workloads.h"
#include "src/system/cluster.h"

namespace perfbench {

// Seconds on the benchmark's steady clock.
double Clock();

enum class Outcome : uint8_t { kPending, kCommitted, kAborted, kRefused };
enum class AbortCause : uint8_t { kNone, kLock, kTimeout, kDown, kOther };

struct Request {
  RequestInput input;
  // Set by the submitting thread once Submit returns.
  polyvalue::TxnId txn;
  double due = 0;        // scheduled (open loop) or actual submit time
  double submit_us = 0;  // time inside ThreadCluster::Submit (traced)
  // Written once by the first callback and published by `settled`.
  double done = 0;
  Outcome outcome = Outcome::kPending;
  AbortCause cause = AbortCause::kNone;
  bool uncertain_output = false;
  std::atomic<bool> settled{false};
  std::atomic<int> callbacks{0};
};

// One assembled cluster with its items loaded. Traced deployments put a
// TracingTransport in front of the real transport and attach a
// PhaseSink; untraced ones hand ThreadCluster the bare transport.
class Deployment {
 public:
  Deployment(const Workload& w, uint64_t seed, std::string wal_dir,
             bool traced);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  polyvalue::ThreadCluster& cluster() { return *cluster_; }
  TracingTransport* tracing() { return tracing_.get(); }
  PhaseSink* phases() { return traced_ ? &phases_ : nullptr; }
  LogicClock* logic() { return traced_ ? &logic_ : nullptr; }
  const std::string& wal_dir() const { return wal_dir_; }

  // Destroys the cluster (flushing and closing every WAL); the
  // transports stay until the Deployment goes.
  void Shutdown() { cluster_.reset(); }

 private:
  const bool traced_;
  const std::string wal_dir_;
  polyvalue::FaultPlan faults_;
  PhaseSink phases_;
  LogicClock logic_;
  std::unique_ptr<polyvalue::Transport> inner_;
  std::unique_ptr<TracingTransport> tracing_;
  std::unique_ptr<polyvalue::ThreadCluster> cluster_;
};

// Issues requests against a deployment: `clients` closed-loop threads,
// or one open-loop Poisson generator. Each stream draws from its own
// seeded generator, so a seed fixes every stream's request sequence.
// Destroy the Deployment first: late callbacks point into the streams.
class LoadGen {
 public:
  LoadGen(const Workload& w, uint64_t seed, Deployment* deployment);
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // Issues `count` requests (split over the closed-loop clients).
  void RunCount(size_t count);
  // Issues requests for `seconds`: the measured window.
  void RunFor(double seconds);
  // Waits until every issued request has settled; false on timeout.
  bool Settle(double timeout_seconds);

  double window_start() const { return window_start_; }
  double window_end() const { return window_end_; }
  // Open loop: how late the generator submitted, in the window (ms).
  const std::vector<double>& lag_ms() const { return lag_ms_; }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& stream : streams_) {
      for (const Request& request : stream->requests) {
        fn(request);
      }
    }
  }

 private:
  struct Stream {
    Stream(const Workload& w, uint64_t seed) : gen(w, seed) {}
    RequestGenerator gen;
    std::deque<Request> requests;
    std::mutex mu;
    std::condition_variable cv;
  };

  void Run(size_t count, double end);
  void Closed(Stream* stream, size_t count, double end);
  void Open(Stream* stream, size_t count, double end);
  void Submit(Stream* stream, Request* request);

  const Workload& w_;
  Deployment* const deployment_;
  std::vector<std::unique_ptr<Stream>> streams_;
  double window_start_ = 0;
  double window_end_ = 0;
  bool measuring_ = false;
  std::vector<double> lag_ms_;
};

// End-to-end figures over the requests issued in the measured window.
struct WindowStats {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t refused = 0;
  uint64_t unsettled = 0;
  uint64_t uncertain = 0;
  uint64_t lock_aborts = 0;
  uint64_t timeout_aborts = 0;
  uint64_t down_aborts = 0;
  uint64_t latency_samples = 0;
  double goodput_tps = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  std::vector<double> submit_us;
};
WindowStats Summarize(const LoadGen& load);

// ---- correctness checks; each appends to `errors` on failure ----

// Waits for every request to settle, then until no site holds a lock or
// an uncertain item.
void CheckDrained(LoadGen* load, Deployment* deployment,
                  std::vector<std::string>* errors);

// Every request was called back at most once and counts exactly once as
// committed, aborted, refused or unsettled; the engines agree.
void CheckAccounting(const LoadGen& load, Deployment* deployment,
                     std::vector<std::string>* errors);

// Every item is certain, its balance is what the committed transfers
// imply, and the balances sum to the initial total. Returns the final
// balances (for the durability check).
std::vector<int64_t> CheckConservation(const Workload& w,
                                       const LoadGen& load,
                                       Deployment* deployment,
                                       std::vector<std::string>* errors);

// WAL workloads: shuts the cluster down, rebuilds every site from its
// WAL alone and compares with `final_balances`. Returns replay seconds.
double CheckDurability(const Workload& w, Deployment* deployment,
                       const std::vector<int64_t>& final_balances,
                       std::vector<std::string>* errors);

// Traced runs: waits until every sent packet has been handled.
void WaitQuiet(Deployment* deployment, std::vector<std::string>* errors);

// Traced runs: each committed transaction carried exactly the messages
// its shape implies (docs/PROTOCOL.md §3), aborted ones no more than
// that, and no message belongs to an unknown transaction.
void CheckMessageCounts(const Workload& w, const LoadGen& load,
                        const TracingTransport::Totals& net,
                        std::vector<std::string>* errors);

// WAL records one committed transaction of this shape appends, summed
// over sites (the derivation is beside the definition).
uint64_t ExpectedWalRecords(const Workload& w, const RequestInput& input);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
