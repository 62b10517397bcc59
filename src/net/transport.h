// Message transport abstraction.
//
// Protocol state machines never touch a socket: they hand byte payloads
// to a Transport and receive them through a registered handler. Three
// implementations ship:
//
//   * SimTransport  — deterministic, on the discrete-event Simulator;
//                     the workhorse for tests and the availability benches.
//   * MemTransport  — real threads + in-memory mailboxes, for exercising
//                     the engine under true concurrency.
//   * TcpTransport  — TCP loopback with length-prefixed frames (epoll),
//                     proving the stack runs over an actual network edge.
//
// Failure injection (site crashes, link partitions, message drops and
// delays) is expressed through a FaultPlan shared by the sim and mem
// transports — the same schedule object drives both.
#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace polyvalue {

struct Packet {
  SiteId from;
  SiteId to;
  std::string payload;
};

class Transport {
 public:
  using Handler = std::function<void(Packet)>;

  virtual ~Transport() = default;

  // Attaches a delivery handler for `site`. The handler may be invoked on
  // an internal thread (mem/tcp) or inside simulator steps (sim).
  virtual Status Register(SiteId site, Handler handler) = 0;
  virtual Status Unregister(SiteId site) = 0;

  // Queues a packet. Asynchronous, best-effort: loss is a legitimate
  // outcome (that is what the protocol tolerates), so Send only fails on
  // caller errors (unregistered sender).
  virtual Status Send(Packet packet) = 0;
};

// Mutable failure schedule consulted on every delivery. Thread-safe.
class FaultPlan {
 public:
  // Marks a site crashed: nothing is delivered to it, nothing it sends
  // leaves.
  void SetSiteDown(SiteId site, bool down);
  bool IsSiteDown(SiteId site) const;

  // Cuts the (symmetric) link between two sites.
  void SetLinkDown(SiteId a, SiteId b, bool down);

  // Cuts only the `from` -> `to` direction of a link: packets the other
  // way still flow. Models the asymmetric routing failures WAN paths
  // actually suffer (one-way BGP blackholes, asymmetric congestion
  // loss) that symmetric link cuts cannot express.
  void SetOneWayDown(SiteId from, SiteId to, bool down);

  // Splits the network into two halves; traffic crossing halves is cut.
  void Partition(const std::vector<SiteId>& side_a,
                 const std::vector<SiteId>& side_b);
  // Cuts only the `from_side` -> `to_side` direction between two site
  // groups (split-brain where one side can still hear the other).
  void PartitionOneWay(const std::vector<SiteId>& from_side,
                       const std::vector<SiteId>& to_side);
  // Restores every cut link, symmetric and one-way (sites marked down
  // stay down; per-link delay shaping is topology, not a fault, and is
  // untouched).
  void HealLinks();
  // Restores everything except delay shaping.
  void HealAll();

  // Uniform random drop probability applied to every packet.
  void SetDropProbability(double p);

  // Per-packet latency sampled uniformly from [min, max] seconds — the
  // default for links without their own shaping below.
  void SetDelayRange(double min_seconds, double max_seconds);

  // Per-directed-link latency override: packets `from` -> `to` sample
  // uniformly from [min, max] seconds instead of the default range.
  // This is the WAN model's substrate — region-pair latency
  // distributions compile down to one entry per cross-region site pair
  // (src/replica/wan.h does the compiling).
  void SetLinkDelayRange(SiteId from, SiteId to, double min_seconds,
                         double max_seconds);
  // Drops every per-link delay override, restoring the default range.
  void ClearLinkDelays();

  // Decision point: should a packet sent now be delivered?
  bool ShouldDeliver(SiteId from, SiteId to, Rng* rng) const;
  // Delay for a packet `from` -> `to`: the link's SetLinkDelayRange
  // override if one is installed, else the default range. Draws one
  // NextDouble() unless the range is a single point (then none).
  double SampleDelay(SiteId from, SiteId to, Rng* rng) const;

  double min_delay() const;

 private:
  static std::pair<uint64_t, uint64_t> LinkKey(SiteId a, SiteId b);

  mutable Mutex mu_ POLYV_MUTEX_RANK(kFaultPlan);
  std::unordered_set<uint64_t> down_sites_ GUARDED_BY(mu_);
  struct PairHash {
    size_t operator()(const std::pair<uint64_t, uint64_t>& p) const {
      return std::hash<uint64_t>()(p.first) * 1000003u ^
             std::hash<uint64_t>()(p.second);
    }
  };
  std::unordered_set<std::pair<uint64_t, uint64_t>, PairHash> down_links_
      GUARDED_BY(mu_);
  // Directed cuts, keyed (from, to) — NOT canonicalised like down_links_.
  std::unordered_set<std::pair<uint64_t, uint64_t>, PairHash>
      down_one_way_ GUARDED_BY(mu_);
  // Directed per-link delay overrides, keyed (from, to).
  std::unordered_map<std::pair<uint64_t, uint64_t>,
                     std::pair<double, double>, PairHash>
      link_delays_ GUARDED_BY(mu_);
  double drop_probability_ GUARDED_BY(mu_) = 0.0;
  double delay_min_ GUARDED_BY(mu_) = 0.001;  // 1 ms default one-way latency
  double delay_max_ GUARDED_BY(mu_) = 0.003;
};

}  // namespace polyvalue

#endif  // SRC_NET_TRANSPORT_H_
