// Threaded in-memory transport.
//
// Each registered site owns a mailbox and a dispatcher thread; Send
// applies the FaultPlan, stamps a delivery deadline (steady-clock now +
// sampled delay) and enqueues. The dispatcher sleeps until the earliest
// deadline and invokes the handler off the sender's thread — the engine
// above must therefore be thread-safe, which the integration tests verify.
//
// Send is the hand-off every protocol message pays for, so it is kept
// lean: one registry critical section finds both sender and receiver,
// the packet is queued under the receiver's mailbox lock alone, and the
// dispatcher is woken after every lock is released, and only when the
// packet is now its earliest deadline. Mailboxes are shared_ptr-owned,
// so an Unregister racing a Send cannot free the mailbox under it.
#ifndef SRC_NET_MEM_TRANSPORT_H_
#define SRC_NET_MEM_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>

#include "src/common/thread_annotations.h"
#include "src/net/transport.h"

namespace polyvalue {

class MemTransport : public Transport {
 public:
  // faults may be null (perfect network). The plan and rng seed are
  // captured at construction; each mailbox forks its own rng stream.
  explicit MemTransport(FaultPlan* faults = nullptr, uint64_t seed = 1);
  ~MemTransport() override;

  MemTransport(const MemTransport&) = delete;
  MemTransport& operator=(const MemTransport&) = delete;

  Status Register(SiteId site, Handler handler) override;
  Status Unregister(SiteId site) override;
  Status Send(Packet packet) override;

  // Blocks until every queued packet has been delivered or dropped.
  void Flush();

  uint64_t packets_sent() const;
  uint64_t packets_delivered() const;

 private:
  using SteadyTime = std::chrono::steady_clock::time_point;

  struct Timed {
    SteadyTime deliver_at;
    uint64_t seq;
    Packet packet;
  };
  struct Later {
    bool operator()(const Timed& a, const Timed& b) const {
      if (a.deliver_at != b.deliver_at) {
        return a.deliver_at > b.deliver_at;
      }
      return a.seq > b.seq;
    }
  };

  struct Mailbox {
    Mutex mu POLYV_MUTEX_RANK(kTransportEndpoint);
    // Two condition variables, so that Send's NotifyOne always reaches
    // the dispatcher and never a Flush waiter instead.
    CondVar cv;       // the dispatcher waits here for packets
    CondVar drained;  // Flush waits here for the mailbox to go idle
    std::priority_queue<Timed, std::vector<Timed>, Later> queue
        GUARDED_BY(mu);
    uint64_t next_seq GUARDED_BY(mu) = 0;  // FIFO among equal deadlines
    // Set once before the dispatcher thread starts, invoked unlocked —
    // deliberately not guarded.
    Handler handler;
    bool stopping GUARDED_BY(mu) = false;
    bool idle GUARDED_BY(mu) = true;  // no packet currently being handled
    std::thread dispatcher;
  };

  void DispatchLoop(Mailbox* box);
  // Stops the mailbox's dispatcher and waits for it to exit.
  static void StopDispatcher(Mailbox* box);

  FaultPlan* const faults_;  // fixed at construction; thread-safe itself
  Rng send_rng_ GUARDED_BY(mu_);

  mutable Mutex mu_ POLYV_MUTEX_RANK(kTransport);
  std::unordered_map<SiteId, std::shared_ptr<Mailbox>> mailboxes_
      GUARDED_BY(mu_);
  uint64_t packets_sent_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> packets_delivered_{0};
};

}  // namespace polyvalue

#endif  // SRC_NET_MEM_TRANSPORT_H_
