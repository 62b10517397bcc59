// Deterministic transport on the discrete-event simulator.
//
// Every Send consults the FaultPlan at send time (site/link cuts, random
// drops) and, if deliverable, schedules the handler invocation after a
// sampled delay. The receiving site is re-checked at delivery time, so a
// site that crashes while a packet is in flight never sees it — matching
// the paper's failure model where a down site neither sends nor receives.
#ifndef SRC_NET_SIM_TRANSPORT_H_
#define SRC_NET_SIM_TRANSPORT_H_

#include <unordered_map>

#include "src/event/simulator.h"
#include "src/net/transport.h"
#include "src/obs/trace.h"

namespace polyvalue {

class SimTransport : public Transport {
 public:
  // The simulator, fault plan and rng must outlive the transport.
  SimTransport(Simulator* sim, FaultPlan* faults, Rng* rng)
      : sim_(sim), faults_(faults), rng_(rng) {}

  Status Register(SiteId site, Handler handler) override;
  Status Unregister(SiteId site) override;
  Status Send(Packet packet) override;

  // Optional packet filter consulted (after the FaultPlan) at send time;
  // returning false drops the packet. Enables protocol-aware fault
  // injection — e.g. stranding specific transactions by dropping their
  // COMPLETE messages — which whole-site crashes cannot express.
  using Filter = std::function<bool(const Packet&)>;
  void set_filter(Filter filter) { filter_ = std::move(filter); }

  // Optional trace sink: emits kMsgDropped / kMsgDelivered events for
  // every packet fate. Null (the default) costs nothing on the hot path.
  void set_trace(TraceSink* trace) { trace_ = trace; }

  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_delivered() const { return packets_delivered_; }
  uint64_t packets_dropped() const { return packets_sent_ - packets_delivered_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  Simulator* sim_;
  FaultPlan* faults_;
  Rng* rng_;
  Filter filter_;
  TraceSink* trace_ = nullptr;

  void TracePacket(TraceEventType type, const Packet& packet);
  std::unordered_map<SiteId, Handler> handlers_;
  uint64_t packets_sent_ = 0;
  uint64_t packets_delivered_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace polyvalue

#endif  // SRC_NET_SIM_TRANSPORT_H_
