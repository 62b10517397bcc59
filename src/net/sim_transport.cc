#include "src/net/sim_transport.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace polyvalue {

Status SimTransport::Register(SiteId site, Handler handler) {
  auto [it, inserted] = handlers_.emplace(site, std::move(handler));
  (void)it;
  if (!inserted) {
    return AlreadyExistsError(StrCat("site ", site, " already registered"));
  }
  return OkStatus();
}

Status SimTransport::Unregister(SiteId site) {
  if (handlers_.erase(site) == 0) {
    return NotFoundError(StrCat("site ", site, " not registered"));
  }
  return OkStatus();
}

void SimTransport::TracePacket(TraceEventType type, const Packet& packet) {
  if (trace_ == nullptr) {
    return;
  }
  TraceEvent event;
  event.time = sim_->now();
  event.type = type;
  // Dropped packets are attributed to the sender (the receiver never saw
  // them); deliveries to the receiver.
  event.site = type == TraceEventType::kMsgDelivered ? packet.to : packet.from;
  event.peer = type == TraceEventType::kMsgDelivered ? packet.from : packet.to;
  event.arg = packet.payload.size();
  trace_->Emit(event);
}

Status SimTransport::Send(Packet packet) {
  if (handlers_.find(packet.from) == handlers_.end()) {
    return InvalidArgumentError(
        StrCat("sender ", packet.from, " not registered"));
  }
  ++packets_sent_;
  bytes_sent_ += packet.payload.size();
  if (!faults_->ShouldDeliver(packet.from, packet.to, rng_)) {
    POLYV_TRACE << "drop " << packet.from << "->" << packet.to;
    TracePacket(TraceEventType::kMsgDropped, packet);
    return OkStatus();  // silently dropped: that is the failure model
  }
  if (filter_ != nullptr && !filter_(packet)) {
    POLYV_TRACE << "filtered " << packet.from << "->" << packet.to;
    TracePacket(TraceEventType::kMsgDropped, packet);
    return OkStatus();
  }
  const double delay = faults_->SampleDelay(packet.from, packet.to, rng_);
  sim_->After(delay, [this, packet = std::move(packet)]() mutable {
    // Re-check the receiver at delivery time.
    if (faults_->IsSiteDown(packet.to)) {
      TracePacket(TraceEventType::kMsgDropped, packet);
      return;
    }
    auto it = handlers_.find(packet.to);
    if (it == handlers_.end()) {
      TracePacket(TraceEventType::kMsgDropped, packet);
      return;  // receiver vanished while in flight
    }
    ++packets_delivered_;
    TracePacket(TraceEventType::kMsgDelivered, packet);
    it->second(std::move(packet));
  });
  return OkStatus();
}

}  // namespace polyvalue
