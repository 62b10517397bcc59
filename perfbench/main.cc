// Wall-clock benchmark of the threaded runtimes.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>]
//
// --trace 0 measures the end-to-end metrics on untraced clusters: the
// --seconds window is split into rounds of about a second, each on a
// freshly set-up cluster that is drained and checked afterwards, and
// each metric is read off its per-round values (see kRoundSeconds).
// --trace 1 spends half of --seconds on such rounds and half on traced
// ones that feed the per-layer ledger (ledger.h); the ratio of the two
// goodputs is the tracing overhead.
// Either way the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// `attempted` counts the requests due in the measured windows and
// `failed` those that got no answer (see Unanswered). A failed check
// prints correct=false and exits 1. WAL files go under
// --scratch and are removed at the end.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/ledger.h"
#include "perfbench/workloads.h"
#include "src/model/analytic.h"
#include "src/txn/messages.h"

namespace perfbench {
namespace {

using polyvalue::MsgType;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
};

bool ParseArgs(int argc, char** argv, Args* args) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr &&
         args->seconds > 0;
} catch (const std::exception&) {
  return false;  // a malformed number
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      value = 0;
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      json += (i > 0 ? ", \"" : "\"") + metrics_[i].name +
              "\": {\"value\": " + Number(metrics_[i].value) +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  // Shortest decimal that reads back as the same double.
  static std::string Number(double value) {
    char buffer[64];
    const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
    return std::string(buffer, result.ptr);
  }

  std::vector<Metric> metrics_;
};

// The load generator holds the request records that callbacks write into,
// so the deployment (and every engine that could still call back) is
// declared last and destroyed first.
struct Session {
  std::unique_ptr<LoadGen> load;
  std::unique_ptr<Deployment> deployment;
};

std::unique_ptr<Session> SetUp(const Workload& w, uint64_t seed,
                               const std::string& wal_dir, bool traced,
                               std::vector<std::string>* errors) {
  auto session = std::make_unique<Session>();
  std::filesystem::remove_all(wal_dir);
  session->deployment =
      std::make_unique<Deployment>(w, seed, wal_dir, traced);
  session->load =
      std::make_unique<LoadGen>(w, seed, session->deployment.get());
  session->load->RunCount(w.warmup_requests);
  if (!session->load->Settle(30)) {
    errors->push_back("warm-up requests did not settle");
  }
  return session;
}

// Drain, accounting and conservation: the checks every run makes.
std::vector<int64_t> CheckRun(const Workload& w, Session* session,
                              std::vector<std::string>* errors) {
  CheckDrained(session->load.get(), session->deployment.get(), errors);
  CheckAccounting(*session->load, session->deployment.get(), errors);
  return CheckConservation(w, *session->load, session->deployment.get(),
                           errors);
}

void PrintWindow(const std::string& label, const WindowStats& st) {
  std::printf(
      "%s: %llu attempted, %llu committed (%llu uncertain output), "
      "%llu aborted (%llu lock, %llu timeout), %llu refused, %llu "
      "unsettled; %.1f txn/s, p50 %.4f ms, p99 %.4f ms over %llu "
      "samples\n",
      label.c_str(), static_cast<unsigned long long>(st.attempted),
      static_cast<unsigned long long>(st.committed),
      static_cast<unsigned long long>(st.uncertain),
      static_cast<unsigned long long>(st.aborted),
      static_cast<unsigned long long>(st.lock_aborts),
      static_cast<unsigned long long>(st.timeout_aborts),
      static_cast<unsigned long long>(st.refused),
      static_cast<unsigned long long>(st.unsettled), st.goodput_tps,
      st.latency_p50_ms, st.latency_p99_ms,
      static_cast<unsigned long long>(st.latency_samples));
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

// Requests that got no answer: refused by a down coordinator, or never
// settled. An abort is an answer the engine may give under contention,
// and the conservation check proves it left no effect; aborts count
// against commit_ratio and failed_ratio instead.
uint64_t Unanswered(const WindowStats& st) {
  return st.refused + st.unsettled;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The untraced measurement is split into rounds of about a second, each
// on a fresh cluster (new threads, new placement on the cores). Other
// load on a shared machine slows some rounds several-fold, and a slow
// spell can cover most of a run, so timings are read near the
// favourable end of their per-round values: the 90th percentile of
// goodput and the 10th of latency (the second-best of 20 rounds).
constexpr double kRoundSeconds = 1.0;
constexpr double kFavourable = 0.1;

int Rounds(const Args& args) {
  return std::max(1, static_cast<int>(std::lround(args.seconds /
                                                  kRoundSeconds)));
}

uint64_t RoundSeed(uint64_t seed, int round) {
  return seed * 1000003 + static_cast<uint64_t>(round);
}

struct Untraced {
  std::vector<WindowStats> rounds;
  std::vector<double> setup_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // The q-quantile over rounds of `field`.
  template <typename Fn>
  double Quantile(double q, Fn field) const {
    std::vector<double> values;
    for (const WindowStats& st : rounds) {
      values.push_back(field(st));
    }
    return perfbench::Quantile(values, q);
  }
};

// One untraced round: set up (timed), run, check.
WindowStats UntracedRound(const Workload& w, uint64_t seed, double seconds,
                          const std::string& label,
                          const std::string& wal_dir, double* setup_s,
                          std::vector<std::string>* errors) {
  const double start = Clock();
  std::unique_ptr<Session> session =
      SetUp(w, seed, wal_dir, /*traced=*/false, errors);
  *setup_s = Clock() - start;
  session->load->RunFor(seconds);
  const std::vector<int64_t> balances = CheckRun(w, session.get(), errors);
  const WindowStats st = Summarize(*session->load);
  CheckDurability(w, session->deployment.get(), balances, errors);
  PrintWindow(label, st);
  return st;
}

Untraced MeasureUntraced(const Workload& w, const Args& args,
                         const std::string& wal_root,
                         std::vector<std::string>* errors) {
  Untraced out;
  const int rounds = Rounds(args);
  // The process's first clusters run slower (cold caches, allocator and
  // clock frequency), so one round runs first and is not counted.
  double setup_s = 0;
  UntracedRound(w, RoundSeed(args.seed, 2 * rounds), kRoundSeconds,
                "warm-up round", wal_root + "/w", &setup_s, errors);
  for (int round = 0; round < rounds; ++round) {
    const WindowStats st = UntracedRound(
        w, RoundSeed(args.seed, round), args.seconds / rounds,
        "round " + std::to_string(round),
        wal_root + "/u" + std::to_string(round), &setup_s, errors);
    out.setup_s.push_back(setup_s);
    out.attempted += st.attempted;
    out.failed += Unanswered(st);
    out.rounds.push_back(st);
  }
  return out;
}

// Per-layer sums over the traced rounds.
struct Ledger {
  TracingTransport::Totals net;  // by_txn is checked per round, not kept
  PhaseSink::Totals phases;      // decisions likewise
  polyvalue::EngineMetrics engine;
  WindowStats window;  // counts summed over rounds
  std::vector<double> goodput;
  std::vector<double> submit_us;
  std::vector<double> lag_ms;
  std::vector<double> uncertain;  // P(t) samples
  std::vector<double> exec_us;
  ReduceCost reduce;
  uint64_t commits = 0;  // warm-up included, like the transport counters
  uint64_t records = 0;
  uint64_t fsyncs = 0;
  uint64_t flushed = 0;
  double handler_s = 0;       // in handlers during the windows
  double item_installs = 0;   // items turned uncertain during the windows
  double installs = 0;        // polyvalue installs during the windows
  double updates = 0;         // item updates committed during the windows
  double replay_s = 0;
  uint64_t logic_ns = 0;
  uint64_t logic_calls = 0;
};

// Codec replay sample cap, over all rounds.
constexpr size_t kMaxPayloads = 8192;

// One traced round on a fresh cluster: run, check, fold into `ledger`.
void TracedRound(const Workload& w, uint64_t seed, double seconds,
                 const std::string& label, const std::string& wal_dir,
                 Ledger* ledger, std::vector<std::string>* errors) {
  std::unique_ptr<Session> session =
      SetUp(w, seed, wal_dir, /*traced=*/true, errors);
  Deployment& deployment = *session->deployment;
  polyvalue::ThreadCluster& cluster = deployment.cluster();
  LoadGen& load = *session->load;

  const double handler_before = deployment.tracing()->handler_seconds();
  const uint64_t item_installs_before = deployment.phases()->installs();
  const uint64_t installs_before = cluster.TotalMetrics().polyvalue_installs;
  Sampler sampler(w, &cluster, seed);
  load.RunFor(seconds);
  sampler.Stop();
  ledger->handler_s += deployment.tracing()->handler_seconds() - handler_before;
  ledger->item_installs += static_cast<double>(
      deployment.phases()->installs() - item_installs_before);
  ledger->installs += static_cast<double>(
      cluster.TotalMetrics().polyvalue_installs - installs_before);

  const std::vector<int64_t> balances = CheckRun(w, session.get(), errors);
  const WindowStats st = Summarize(load);
  if (w.exact_counts) {
    WaitQuiet(&deployment, errors);
  }
  TracingTransport::Totals net = deployment.tracing()->Collect();
  const PhaseSink::Totals phases = deployment.phases()->Collect();
  ledger->engine.Accumulate(cluster.TotalMetrics());

  uint64_t expected_records = phases.abort_learned;
  load.ForEach([&](const Request& r) {
    if (r.outcome != Outcome::kCommitted) {
      return;
    }
    ++ledger->commits;
    expected_records += ExpectedWalRecords(w, r.input);
    if (!r.input.audit && r.done >= load.window_start() &&
        r.done < load.window_end()) {
      ledger->updates += static_cast<double>(r.input.items.size());
    }
  });
  if (w.exact_counts) {
    CheckMessageCounts(w, load, net, errors);
  }
  uint64_t records = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (const polyvalue::Wal* wal = cluster.site(i).wal()) {
      records += wal->records_appended();
      ledger->fsyncs += wal->batches_flushed();
      ledger->flushed += wal->records_flushed();
    }
  }
  ledger->records += records;
  if (w.wal && w.exact_counts && records != expected_records) {
    errors->push_back("WAL holds " + std::to_string(records) +
                      " records; the 2PC shapes issued imply " +
                      std::to_string(expected_records));
  }
  ledger->replay_s += CheckDurability(w, &deployment, balances, errors);

  const std::vector<double> exec_us = ReplayExecute(w, sampler.captures());
  ledger->exec_us.insert(ledger->exec_us.end(), exec_us.begin(),
                         exec_us.end());
  if (!ReplayReduce(sampler.captures(), phases.decisions, &ledger->reduce)) {
    errors->push_back("a captured polyvalue did not reduce to certain");
  }
  ledger->uncertain.insert(ledger->uncertain.end(),
                           sampler.uncertain().begin(),
                           sampler.uncertain().end());
  ledger->lag_ms.insert(ledger->lag_ms.end(), load.lag_ms().begin(),
                        load.lag_ms().end());
  ledger->submit_us.insert(ledger->submit_us.end(), st.submit_us.begin(),
                           st.submit_us.end());
  PrintWindow(label, st);
  ledger->logic_ns += deployment.logic()->ns.load();
  ledger->logic_calls += deployment.logic()->calls.load();
  ledger->goodput.push_back(st.goodput_tps);
  ledger->window.attempted += st.attempted;
  ledger->window.committed += st.committed;
  ledger->window.refused += st.refused;
  ledger->window.unsettled += st.unsettled;
  ledger->window.uncertain += st.uncertain;
  ledger->window.lock_aborts += st.lock_aborts;
  ledger->window.timeout_aborts += st.timeout_aborts;
  ledger->window.down_aborts += st.down_aborts;
  net.by_txn.clear();
  TracingTransport::Merge(net, &ledger->net);
  if (ledger->net.payloads.size() > kMaxPayloads) {
    ledger->net.payloads.resize(kMaxPayloads);
  }
  PhaseSink::Merge(phases, &ledger->phases);
}

// The traced rounds, then the per-layer metrics into `report`.
Ledger MeasureTraced(const Workload& w, const Args& args,
                     double untraced_goodput, const std::string& wal_root,
                     Report* report, std::vector<std::string>* errors) {
  Ledger ledger;
  const int rounds = Rounds(args);
  for (int round = 0; round < rounds; ++round) {
    TracedRound(w, RoundSeed(args.seed, rounds + round),
                args.seconds / rounds, "traced round " + std::to_string(round),
                wal_root + "/t" + std::to_string(round), &ledger, errors);
  }
  const TracingTransport::Totals& net = ledger.net;
  const PhaseSink::Totals& phases = ledger.phases;
  const polyvalue::EngineMetrics& engine = ledger.engine;
  std::printf("traced: %llu packets, %llu trace events, %llu WAL records "
              "in %llu fsyncs, %llu late PREPAREs\n",
              static_cast<unsigned long long>(net.packets),
              static_cast<unsigned long long>(phases.events),
              static_cast<unsigned long long>(ledger.records),
              static_cast<unsigned long long>(ledger.fsyncs),
              static_cast<unsigned long long>(phases.late_prepares));

  CodecCost codec;
  if (!ReplayCodec(net.payloads, &codec)) {
    errors->push_back("a sampled message does not round-trip the codec");
  }
  const double c = static_cast<double>(ledger.commits);
  const auto per_commit = [&](double v) { return Ratio(v, c); };
  const double attempted = static_cast<double>(ledger.window.attempted);

  report->Add("net.packets_per_commit", per_commit(net.packets), "count");
  report->Add("net.bytes_per_commit", per_commit(net.bytes), "B");
  report->Add("net.send_us.p50", Quantile(net.send_us, 0.5), "us");
  report->Add("net.hop_us.p50", Quantile(net.hop_us, 0.5), "us");
  report->Add("net.hop_us.p99", Quantile(net.hop_us, 0.99), "us");
  report->Add("codec.encode_ns", codec.encode_ns, "ns");
  report->Add("codec.decode_ns", codec.decode_ns, "ns");
  report->Add("codec.bytes_per_msg", Ratio(net.bytes, net.packets), "B");
  report->Add("txn.handler_us.p50", Quantile(net.handler_us, 0.5), "us");
  report->Add("txn.handler_us.p99", Quantile(net.handler_us, 0.99), "us");
  report->Add("txn.handler_busy",
              Ratio(ledger.handler_s, args.seconds * w.sites), "ratio");
  report->Add("txn.submit_us.p50", Quantile(ledger.submit_us, 0.5), "us");
  const std::pair<MsgType, const char*> types[] = {
      {MsgType::kPrepare, "prepare"},
      {MsgType::kPrepareReply, "prepare_reply"},
      {MsgType::kWriteReq, "write_req"},
      {MsgType::kReady, "ready"},
      {MsgType::kComplete, "complete"},
      {MsgType::kAbort, "abort"},
      {MsgType::kOutcomeRequest, "outcome_request"},
      {MsgType::kOutcomeReply, "outcome_reply"},
      {MsgType::kOutcomeNotify, "outcome_notify"}};
  for (const auto& [type, name] : types) {
    report->Add(std::string("txn.msgs.") + name + "_per_commit",
                per_commit(net.by_type[static_cast<size_t>(type)]), "count");
  }
  report->Add("txn.abort_ratio.lock",
              Ratio(ledger.window.lock_aborts, attempted), "ratio");
  report->Add("txn.abort_ratio.timeout",
              Ratio(ledger.window.timeout_aborts, attempted), "ratio");
  report->Add("txn.abort_ratio.down",
              Ratio(ledger.window.down_aborts, attempted), "ratio");
  report->Add("txn.late_prepares_per_abort",
              Ratio(phases.late_prepares, phases.aborts), "ratio");
  report->Add("phase.prepare_ms", Mean(phases.prepare_ms), "ms");
  report->Add("phase.decide_ms", Mean(phases.decide_ms), "ms");
  const double uncertain_ms = Mean(phases.uncertain_ms);
  report->Add("phase.uncertain_ms", uncertain_ms, "ms");
  report->Add("wal.fsyncs_per_commit", per_commit(ledger.fsyncs), "count");
  report->Add("wal.records_per_fsync", Ratio(ledger.flushed, ledger.fsyncs),
              "count");
  report->Add("wal.records_per_commit", per_commit(ledger.records), "count");
  report->Add("wal.replay_s", Ratio(ledger.replay_s, rounds), "s");
  const double sampled_p = Mean(ledger.uncertain);
  report->Add("store.uncertain_items.avg", sampled_p, "count");
  report->Add("store.uncertain_items.peak", Quantile(ledger.uncertain, 1.0),
              "count");
  report->Add("store.lock_wait_share",
              Ratio(engine.lock_waits,
                    net.by_type[static_cast<size_t>(MsgType::kPrepare)]),
              "ratio");
  report->Add("poly.polytxn_share",
              Ratio(engine.polytxns, engine.txns_submitted), "ratio");
  report->Add("poly.alts_per_polytxn",
              Ratio(phases.alternatives, phases.forks), "count");
  report->Add("poly.installs_per_commit",
              per_commit(engine.polyvalue_installs), "count");
  report->Add("poly.logic_us", Ratio(ledger.logic_ns / 1e3,
                                     ledger.logic_calls), "us");
  report->Add("poly.exec_us.p50", Quantile(ledger.exec_us, 0.5), "us");
  report->Add("poly.exec_us.p99", Quantile(ledger.exec_us, 0.99), "us");
  report->Add("condition.reduce_us",
              Ratio(ledger.reduce.seconds * 1e6, ledger.reduce.calls), "us");
  report->Add("condition.pairs_per_polyvalue",
              Ratio(ledger.reduce.pairs, ledger.reduce.polyvalues), "count");

  // §4 cross-check (reported, not gated). Little's law: items turned
  // uncertain per second times how long each stays uncertain. The model
  // instead counts every install as a new failure (U·F) recovered at
  // rate R = 1 / mean uncertain time; a transfer's new value depends only
  // on the item's own previous value, so D = Y = 0.
  const double mean_uncertain_s = uncertain_ms / 1e3;
  const double little = ledger.item_installs / args.seconds * mean_uncertain_s;
  polyvalue::ModelParams model;
  model.updates_per_second = ledger.updates / args.seconds;
  model.failure_probability = Ratio(ledger.installs, ledger.updates);
  model.items = static_cast<double>(w.items);
  model.recovery_rate = Ratio(1.0, mean_uncertain_s);
  model.overwrite_probability = 0;
  model.dependency_degree = 0;
  const double predicted =
      mean_uncertain_s > 0 ? polyvalue::Predict(model).steady_state : 0;
  report->Add("model.little_p", little, "count");
  report->Add("model.predict_p", predicted, "count");
  std::printf("P(t): sampled %.4g, Little's law %.4g, model %.4g\n",
              sampled_p, little, predicted);

  report->Add("gen.lag_ms.p99", Quantile(ledger.lag_ms, 0.99), "ms");
  report->Add("trace.overhead",
              Ratio(Quantile(ledger.goodput, 1 - kFavourable),
                    untraced_goodput),
              "ratio");
  report->Add("failed_ratio",
              Ratio(ledger.window.attempted - ledger.window.committed,
                    attempted),
              "ratio");
  report->Add("uncertain_output_ratio",
              Ratio(ledger.window.uncertain, ledger.window.committed),
              "ratio");
  return ledger;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch <dir>]\n"
                 "workloads:");
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *FindWorkload(args.workload);
  const std::string wal_root = args.scratch + "/" + w.name + "-" +
                               std::to_string(getpid());
  std::vector<std::string> errors;
  Report report;
  std::printf("workload %s, seed %llu, %.3g s window, trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  // A traced run splits its time between the untraced and traced rounds.
  Args phase = args;
  if (args.trace) {
    phase.seconds = args.seconds / 2;
  }
  const Untraced base = MeasureUntraced(w, phase, wal_root, &errors);
  const double goodput =
      base.Quantile(1 - kFavourable,
                    [](const WindowStats& st) { return st.goodput_tps; });
  if (!args.trace) {
    attempted = base.attempted;
    failed = base.failed;
    report.Add("goodput_tps", goodput, "txn/s");
    report.Add("latency_p50_ms",
               base.Quantile(kFavourable,
                             [](const WindowStats& st) {
                               return st.latency_p50_ms;
                             }),
               "ms");
    report.Add("latency_p99_ms",
               base.Quantile(kFavourable,
                             [](const WindowStats& st) {
                               return st.latency_p99_ms;
                             }),
               "ms");
    report.Add("commit_ratio",
               base.Quantile(0.5,
                             [](const WindowStats& st) {
                               return Ratio(st.committed, st.attempted);
                             }),
               "ratio");
    report.Add("certain_output_ratio",
               base.Quantile(0.5,
                             [](const WindowStats& st) {
                               return Ratio(st.committed - st.uncertain,
                                            st.committed);
                             }),
               "ratio");
    report.Add("setup_s", Quantile(base.setup_s, 0.5), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const Ledger ledger =
        MeasureTraced(w, phase, goodput, wal_root, &report, &errors);
    attempted = ledger.window.attempted;
    failed = Unanswered(ledger.window);
  }
  std::filesystem::remove_all(wal_root);

  for (const std::string& error : errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::fflush(stdout);
  report.Print(errors.empty(), attempted, failed);
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
