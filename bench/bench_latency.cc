// Open-loop latency/goodput sweep through the serving front door.
//
// A Poisson arrival process (open loop: arrivals do not wait for
// completions, as real clients do not) is swept across the admission
// controller's configured capacity, from 0.25x to 4x. For each offered
// load the bench reports goodput (commits per second), shed rate, and
// the latency distribution (p50/p95/p99/p99.9) of everything admitted.
//
// A control sweep with admission disabled shows what overload looks
// like without a front door. The engine aborts lock-conflict losers
// immediately (both lock-wait policies), so raw goodput does not
// collapse — the cluster behaves as a loss system — but the request
// SUCCESS RATE does: past saturation an ever-larger fraction of
// requests burn their full retry schedule and fail anyway, slowly and
// indistinguishably from any other abort. The front door pins goodput
// at the configured capacity and converts the same overload into
// instant refusals typed RESOURCE_EXHAUSTED — backpressure a client
// can act on — while admitted requests keep their flat latency curve.
//
// Everything runs on the deterministic simulator in VIRTUAL time, so
// the curve is a pure function of the seed — wall-clock speed of the
// machine running the bench does not move a single number. Results go
// to stdout as a table and to BENCH_latency.json (override the path
// with POLYV_LATENCY_JSON) for CI to archive.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/svc/front_door.h"

namespace polyvalue {
namespace {

// Capacity in the simulator is bounded by lock contention on the hot
// set (the protocol holds an item's lock for ~2 network round trips),
// not by CPU — which is exactly the regime admission control is for.
constexpr int kHotItems = 4;
constexpr double kRateLimit = 300.0;   // admitted requests per second
constexpr size_t kMaxInflight = 24;
constexpr double kDeadline = 0.5;      // seconds
constexpr double kDuration = 4.0;      // virtual seconds per point
constexpr uint64_t kSeed = 7;

TxnSpec Bump(const ItemKey& key, SiteId site) {
  TxnSpec spec;
  spec.ReadWrite(key, site);
  spec.Logic([key](const TxnReads& reads) {
    TxnEffect e;
    e.writes[key] = Value::Int(reads.IntAt(key) + 1);
    return e;
  });
  return spec;
}

struct Point {
  double offered_rps = 0.0;
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t committed = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t budget_exhausted = 0;
  uint64_t aborted = 0;
  uint64_t retries = 0;
  double goodput = 0.0;           // commits per virtual second
  double shed_fraction = 0.0;     // of offered
  double success_fraction = 0.0;  // committed / offered
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

Point RunPoint(double offered_rps, bool admission_on) {
  SimCluster::Options options;
  options.site_count = 2;
  options.seed = kSeed;
  // Wait-die: older requesters queue briefly instead of aborting, which
  // lifts commit rates a little under moderate contention; overload
  // behaviour is the same loss-system shape as kNoWait.
  options.engine.lock_wait = LockWaitPolicy::kWaitDie;
  SimCluster cluster(options);
  for (int i = 0; i < kHotItems; ++i) {
    cluster.Load(1, "h" + std::to_string(i), Value::Int(0));
  }
  SvcOptions svc;
  if (admission_on) {
    svc.admission.rate_limit = kRateLimit;
    svc.admission.max_inflight = kMaxInflight;
  }
  svc.default_deadline = kDeadline;
  svc.initial_backoff = 0.004;
  svc.max_backoff = 0.05;
  svc.seed = kSeed ^ 0x5eedu;
  SimFrontDoor door(&cluster, svc);

  Rng arrivals(kSeed);
  Rng pick(kSeed ^ 0xbeefu);
  uint64_t offered = 0;
  double t = arrivals.NextExponential(1.0 / offered_rps);
  while (t < kDuration) {
    const std::string key =
        "h" + std::to_string(pick.NextBelow(kHotItems));
    cluster.sim().At(t, [&door, &cluster, key] {
      door.Call(0, [&cluster, key] {
        return Bump(key, cluster.site_id(1));
      });
    });
    ++offered;
    t += arrivals.NextExponential(1.0 / offered_rps);
  }
  cluster.RunAll();

  Point point;
  point.offered_rps = offered_rps;
  point.offered = offered;
  point.admitted = door.admission().admitted();
  point.committed = door.counters().committed;
  point.shed = door.admission().shed();
  point.deadline_exceeded = door.counters().deadline_exceeded;
  point.budget_exhausted = door.counters().budget_exhausted;
  point.aborted = door.counters().aborted;
  point.retries = door.counters().retries;
  point.goodput = static_cast<double>(point.committed) / kDuration;
  point.shed_fraction = offered == 0
                            ? 0.0
                            : static_cast<double>(point.shed) /
                                  static_cast<double>(offered);
  point.success_fraction = offered == 0
                               ? 0.0
                               : static_cast<double>(point.committed) /
                                     static_cast<double>(offered);
  const LogHistogram& latency = door.latency();
  point.p50_ms = latency.Percentile(50) * 1e3;
  point.p95_ms = latency.Percentile(95) * 1e3;
  point.p99_ms = latency.Percentile(99) * 1e3;
  point.p999_ms = latency.Percentile(99.9) * 1e3;
  return point;
}

void PrintTable(const char* title, const std::vector<Point>& points) {
  std::printf("\n%s\n\n", title);
  std::printf("%9s %8s %8s %8s %8s %9s %8s %8s %8s %9s\n", "offered/s",
              "goodput", "succ%", "shed%", "retries", "p50 ms", "p95 ms",
              "p99 ms", "p99.9ms", "committed");
  std::printf("%.*s\n", 92,
              "----------------------------------------------------------"
              "----------------------------------");
  for (const Point& p : points) {
    std::printf(
        "%9.0f %8.1f %7.1f%% %7.1f%% %8llu %9.2f %8.2f %8.2f %8.2f %9llu\n",
        p.offered_rps, p.goodput, 100.0 * p.success_fraction,
        100.0 * p.shed_fraction, static_cast<unsigned long long>(p.retries),
        p.p50_ms, p.p95_ms, p.p99_ms, p.p999_ms,
        static_cast<unsigned long long>(p.committed));
  }
}

void AppendPoints(std::string* out, const std::vector<Point>& points) {
  char buf[512];
  *out += "[";
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"offered_rps\": %.1f, \"offered\": %llu, "
        "\"admitted\": %llu, \"committed\": %llu, \"shed\": %llu, "
        "\"aborted\": %llu, \"retries\": %llu, "
        "\"deadline_exceeded\": %llu, \"budget_exhausted\": %llu, "
        "\"goodput\": %.3f, \"shed_fraction\": %.4f, "
        "\"success_fraction\": %.4f, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"p999_ms\": %.3f}",
        i == 0 ? "" : ",", p.offered_rps,
        static_cast<unsigned long long>(p.offered),
        static_cast<unsigned long long>(p.admitted),
        static_cast<unsigned long long>(p.committed),
        static_cast<unsigned long long>(p.shed),
        static_cast<unsigned long long>(p.aborted),
        static_cast<unsigned long long>(p.retries),
        static_cast<unsigned long long>(p.deadline_exceeded),
        static_cast<unsigned long long>(p.budget_exhausted), p.goodput,
        p.shed_fraction, p.success_fraction, p.p50_ms, p.p95_ms, p.p99_ms,
        p.p999_ms);
    *out += buf;
  }
  *out += "\n  ]";
}

int Run() {
  const std::vector<double> multipliers = {0.25, 0.5, 0.75, 1.0,
                                           1.5,  2.0, 3.0,  4.0};
  const size_t idx_2x = 5;  // multipliers[5] == 2.0, the headline point
  std::vector<Point> with_admission;
  std::vector<Point> without_admission;
  for (double m : multipliers) {
    with_admission.push_back(RunPoint(m * kRateLimit, true));
    without_admission.push_back(RunPoint(m * kRateLimit, false));
  }

  std::printf("Open-loop Poisson sweep, %d hot items, rate limit %.0f/s, "
              "inflight cap %zu,\ndeadline %.0f ms, %g virtual s per "
              "point, seed %llu (fully deterministic)\n",
              kHotItems, kRateLimit, kMaxInflight, kDeadline * 1e3,
              kDuration, static_cast<unsigned long long>(kSeed));
  PrintTable("WITH admission control (token bucket + inflight cap)",
             with_admission);
  PrintTable("WITHOUT admission control (every arrival enters)",
             without_admission);

  // The headline numbers: saturation goodput and what survives at 2x.
  double peak = 0.0;
  for (const Point& p : with_admission) {
    peak = std::max(peak, p.goodput);
  }
  const Point& at_2x = with_admission[idx_2x];
  const Point& at_2x_naked = without_admission[idx_2x];
  const double retained = peak > 0.0 ? at_2x.goodput / peak : 0.0;
  std::printf(
      "\npeak goodput %.1f/s; at 2x offered load goodput is %.1f/s with "
      "admission (%.0f%% of\npeak; the other %.0f%% of arrivals were "
      "refused instantly, typed RESOURCE_EXHAUSTED).\nWithout the front "
      "door the same 2x load commits %.1f/s but per-request success\n"
      "drops to %.0f%% — the failures burned %llu retries before "
      "aborting, indistinguishable\nfrom any other abort.\n",
      peak, at_2x.goodput, 100.0 * retained, 100.0 * at_2x.shed_fraction,
      at_2x_naked.goodput, 100.0 * at_2x_naked.success_fraction,
      static_cast<unsigned long long>(at_2x_naked.retries));

  std::string json = "{\n  \"config\": {";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"rate_limit\": %.1f, \"max_inflight\": %zu, "
                "\"hot_items\": %d, \"deadline_s\": %.3f, "
                "\"duration_s\": %.1f, \"seed\": %llu},\n",
                kRateLimit, kMaxInflight, kHotItems, kDeadline, kDuration,
                static_cast<unsigned long long>(kSeed));
  json += buf;
  json += "  \"with_admission\": ";
  AppendPoints(&json, with_admission);
  json += ",\n  \"without_admission\": ";
  AppendPoints(&json, without_admission);
  std::snprintf(buf, sizeof(buf),
                ",\n  \"peak_goodput\": %.3f,\n"
                "  \"goodput_at_2x\": %.3f,\n"
                "  \"retained_fraction_at_2x\": %.4f\n}\n",
                peak, at_2x.goodput, retained);
  json += buf;

  const char* env = std::getenv("POLYV_LATENCY_JSON");
  const std::string path = env != nullptr ? env : "BENCH_latency.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "failed to open %s for writing\n", path.c_str());
    return 1;
  }
  out << json;
  out.close();
  std::printf("\nlatency JSON written to %s\n", path.c_str());

  // Guard rail for CI: the run must demonstrate no overload collapse.
  if (retained < 0.7) {
    std::fprintf(stderr,
                 "FAIL: goodput at 2x offered load retained only %.0f%% "
                 "of peak\n",
                 100.0 * retained);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace polyvalue

int main() { return polyvalue::Run(); }
