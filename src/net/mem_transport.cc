#include "src/net/mem_transport.h"

#include "src/common/strings.h"

namespace polyvalue {

MemTransport::MemTransport(FaultPlan* faults, uint64_t seed)
    : faults_(faults), send_rng_(seed) {}

MemTransport::~MemTransport() {
  std::unordered_map<SiteId, std::shared_ptr<Mailbox>> boxes;
  {
    MutexLock lock(&mu_);
    boxes.swap(mailboxes_);
  }
  for (auto& [site, box] : boxes) {
    StopDispatcher(box.get());
  }
}

Status MemTransport::Register(SiteId site, Handler handler) {
  MutexLock lock(&mu_);
  if (mailboxes_.count(site)) {
    return AlreadyExistsError(StrCat("site ", site, " already registered"));
  }
  auto box = std::make_shared<Mailbox>();
  box->handler = std::move(handler);
  Mailbox* raw = box.get();
  box->dispatcher = std::thread([this, raw] { DispatchLoop(raw); });
  mailboxes_.emplace(site, std::move(box));
  return OkStatus();
}

Status MemTransport::Unregister(SiteId site) {
  std::shared_ptr<Mailbox> box;
  {
    MutexLock lock(&mu_);
    auto it = mailboxes_.find(site);
    if (it == mailboxes_.end()) {
      return NotFoundError(StrCat("site ", site, " not registered"));
    }
    box = std::move(it->second);
    mailboxes_.erase(it);
  }
  StopDispatcher(box.get());
  return OkStatus();
}

void MemTransport::StopDispatcher(Mailbox* box) {
  {
    MutexLock lock(&box->mu);
    box->stopping = true;
  }
  box->cv.NotifyOne();
  if (box->dispatcher.joinable()) {
    box->dispatcher.join();
  }
}

Status MemTransport::Send(Packet packet) {
  std::chrono::microseconds delay(0);
  std::shared_ptr<Mailbox> box;
  {
    MutexLock lock(&mu_);
    ++packets_sent_;
    if (!mailboxes_.contains(packet.from)) {
      return InvalidArgumentError(
          StrCat("sender ", packet.from, " not registered"));
    }
    if (faults_ != nullptr) {
      if (!faults_->ShouldDeliver(packet.from, packet.to, &send_rng_)) {
        return OkStatus();  // dropped
      }
      delay = std::chrono::microseconds(static_cast<int64_t>(
          faults_->SampleDelay(packet.from, packet.to, &send_rng_) * 1e6));
    }
    auto it = mailboxes_.find(packet.to);
    if (it == mailboxes_.end()) {
      return OkStatus();  // receiver does not exist: drop
    }
    box = it->second;
  }
  bool new_earliest;
  {
    MutexLock lock(&box->mu);
    const uint64_t seq = box->next_seq++;
    box->queue.push(
        {std::chrono::steady_clock::now() + delay, seq, std::move(packet)});
    new_earliest = box->queue.top().seq == seq;
  }
  // The dispatcher is busy or sleeps until its earliest deadline; only a
  // new earliest deadline needs to wake it.
  if (new_earliest) {
    box->cv.NotifyOne();
  }
  return OkStatus();
}

void MemTransport::DispatchLoop(Mailbox* box) {
  box->mu.Lock();
  for (;;) {
    if (box->stopping) {
      box->mu.Unlock();
      return;
    }
    if (box->queue.empty()) {
      // Spurious wakeups are fine: the loop head re-checks.
      box->cv.Wait(&box->mu);
      continue;
    }
    const SteadyTime deadline = box->queue.top().deliver_at;
    if (std::chrono::steady_clock::now() < deadline) {
      (void)box->cv.WaitUntil(&box->mu, deadline);
      continue;
    }
    Packet packet = std::move(const_cast<Timed&>(box->queue.top()).packet);
    box->queue.pop();
    // Re-check receiver liveness at delivery time.
    if (faults_ != nullptr && faults_->IsSiteDown(packet.to)) {
      continue;
    }
    box->idle = false;
    box->mu.Unlock();
    box->handler(std::move(packet));
    ++packets_delivered_;
    box->mu.Lock();
    box->idle = true;
    if (box->queue.empty()) {
      box->drained.NotifyAll();  // wake Flush waiters
    }
  }
}

void MemTransport::Flush() {
  for (;;) {
    std::vector<std::shared_ptr<Mailbox>> boxes;
    {
      MutexLock lock(&mu_);
      boxes.reserve(mailboxes_.size());
      for (auto& [site, box] : mailboxes_) {
        boxes.push_back(box);
      }
    }
    bool all_idle = true;
    for (const auto& box : boxes) {
      MutexLock lock(&box->mu);
      if (!box->queue.empty() || !box->idle) {
        all_idle = false;
        // Wait for this mailbox to drain (with a poll fallback for
        // delayed packets).
        (void)box->drained.WaitFor(&box->mu, 0.001);
      }
    }
    if (all_idle) {
      return;
    }
  }
}

uint64_t MemTransport::packets_sent() const {
  MutexLock lock(&mu_);
  return packets_sent_;
}

uint64_t MemTransport::packets_delivered() const {
  return packets_delivered_.load();
}

}  // namespace polyvalue
