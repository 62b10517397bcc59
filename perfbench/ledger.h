// Per-layer instrumentation for the traced run. Everything here sits
// outside the program and reaches it only through its public seams:
//
//   TracingTransport — a Transport decorator handed to ThreadCluster.
//       Counts packets, bytes and message types (per transaction), times
//       the inner Send, and appends a send stamp that its wrapped
//       handler strips again, so it sees the hop time and the time each
//       site's handler (decode + OnMessage) takes.
//   PhaseSink — a TraceSink folding the engine's own events into phase
//       durations: submit -> writes shipped -> decision, and polyvalue
//       install -> reduce per item.
//   Sampler — a thread sampling P(t) (uncertain items over all sites)
//       and capturing item values through Site::Peek for the replays.
//   Replay* — after the run, times the codec, the polytransaction
//       executor and polyvalue reduction on the captured inputs.
//
// Percentiles come from raw samples, never from bucketed histograms.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/workloads.h"
#include "src/net/transport.h"
#include "src/obs/trace.h"
#include "src/poly/polyvalue.h"
#include "src/system/cluster.h"

namespace perfbench {

// Nearest-rank quantile of raw samples (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Mean(const std::vector<double>& samples);

// Message types of the 2PC leg, indexed by MsgType value (1..9).
inline constexpr size_t kMsgSlots = 10;
using MsgCounts = std::array<uint32_t, kMsgSlots>;

class TracingTransport : public polyvalue::Transport {
 public:
  TracingTransport(polyvalue::Transport* inner, size_t sites);

  polyvalue::Status Register(polyvalue::SiteId site, Handler handler) override;
  polyvalue::Status Unregister(polyvalue::SiteId site) override;
  // SendBatch keeps the base version, which sends through Send.
  polyvalue::Status Send(polyvalue::Packet packet) override;

  // Packets sent but not yet handled by their receiver.
  int64_t in_flight() const { return in_flight_.load(); }
  // Seconds spent in site handlers so far.
  double handler_seconds() const;

  // Merged over all sites; read after traffic has stopped.
  struct Totals {
    uint64_t packets = 0;
    uint64_t bytes = 0;  // payload bytes, without the stamp
    std::array<uint64_t, kMsgSlots> by_type{};
    std::vector<double> send_us;
    std::vector<double> hop_us;
    std::vector<double> handler_us;
    double handler_seconds = 0;
    std::unordered_map<uint64_t, MsgCounts> by_txn;
    std::vector<std::string> payloads;  // a sample, for the codec replay
    uint64_t unparsed = 0;              // payloads without a 2PC header
  };
  Totals Collect() const;
  // Adds `from` into `into`.
  static void Merge(const Totals& from, Totals* into);

 private:
  // One per site: sends are filed under the sender, deliveries under
  // the receiver, so a lane's mutex is rarely contended.
  struct Lane {
    mutable std::mutex mu;
    Totals totals;
    uint64_t seen = 0;
  };
  Lane& LaneOf(polyvalue::SiteId site) const;
  void Stamp(polyvalue::Packet* packet);

  polyvalue::Transport* const inner_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<int64_t> in_flight_{0};
};

class PhaseSink : public polyvalue::TraceSink {
 public:
  void Emit(const polyvalue::TraceEvent& event) override;

  struct Totals {
    std::vector<double> prepare_ms;    // kSubmit -> kWriteShipped
    std::vector<double> decide_ms;     // kWriteShipped -> kDecisionCommit
    std::vector<double> uncertain_ms;  // kPolyInstall -> kPolyReduce
    std::unordered_map<uint64_t, bool> decisions;
    uint64_t aborts = 0;         // kDecisionAbort
    // kOutcomeLearned of an abort: each logs one WAL outcome record.
    uint64_t abort_learned = 0;
    // PREPAREs handled at a site that had already learned the abort:
    // the ABORT overtook them, and their locks wait for the watchdog.
    uint64_t late_prepares = 0;
    uint64_t installs = 0;       // kPolyInstall: items turned uncertain
    uint64_t forks = 0;          // kAlternativeFork: polytransactions
    uint64_t alternatives = 0;   // ... and the alternatives they ran
    uint64_t events = 0;
  };
  Totals Collect() const;
  uint64_t installs() const;
  // Adds `from` into `into`, except the decisions.
  static void Merge(const Totals& from, Totals* into);

 private:
  mutable std::mutex mu_;
  Totals totals_;
  std::unordered_map<uint64_t, double> submitted_;
  std::unordered_map<uint64_t, double> shipped_;
  std::map<std::pair<uint64_t, std::string>, double> installed_;
  std::set<std::pair<uint64_t, uint64_t>> aborted_at_;  // (site, txn)
};

// Item values read through Site::Peek during the run: a transfer's two
// inputs, the first one uncertain whenever any item was.
struct Capture {
  uint64_t from = 0;
  uint64_t to = 0;
  polyvalue::PolyValue from_value;
  polyvalue::PolyValue to_value;
};

class Sampler {
 public:
  Sampler(const Workload& w, polyvalue::ThreadCluster* cluster,
          uint64_t seed);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop();
  const std::vector<double>& uncertain() const { return uncertain_; }
  const std::vector<Capture>& captures() const { return captures_; }

 private:
  void Loop();
  void CaptureOne();

  const Workload& w_;
  polyvalue::ThreadCluster* const cluster_;
  polyvalue::Rng rng_;
  std::vector<double> uncertain_;
  std::vector<Capture> captures_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
};
// Decodes and re-encodes each sampled payload; fails the run (returns
// false) if one does not round-trip.
bool ReplayCodec(const std::vector<std::string>& payloads, CodecCost* cost);

// ExecutePolyTransaction on each capture with the transfer logic;
// microseconds per execution.
std::vector<double> ReplayExecute(const Workload& w,
                                  const std::vector<Capture>& captures);

struct ReduceCost {
  double seconds = 0;  // inside PolyValue::Reduce
  uint64_t calls = 0;
  uint64_t pairs = 0;
  uint64_t polyvalues = 0;
};
// Reduces every captured uncertain value by its dependencies' real
// outcomes, adding to `cost`; fails (returns false) if one does not
// become certain.
bool ReplayReduce(const std::vector<Capture>& captures,
                  const std::unordered_map<uint64_t, bool>& decisions,
                  ReduceCost* cost);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
