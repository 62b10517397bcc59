#include "src/txn/scheduler.h"

#include <chrono>

namespace polyvalue {

namespace {

// One time base for every ThreadScheduler in the process, so Now() and
// the trace timestamps built from it compare across the sites of a
// cluster, each of which has its own scheduler.
std::chrono::steady_clock::time_point ProcessEpoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

ThreadScheduler::ThreadScheduler() : epoch_(ProcessEpoch()) {
  worker_ = std::thread([this] { Loop(); });
}

ThreadScheduler::~ThreadScheduler() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyOne();
  if (worker_.joinable()) {
    worker_.join();
  }
}

double ThreadScheduler::Now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

Scheduler::TimerId ThreadScheduler::ScheduleAfter(double delay_seconds,
                                                  Action action) {
  const auto fire_at =
      Clock::now() + std::chrono::microseconds(
                         static_cast<int64_t>(delay_seconds * 1e6));
  TimerId id;
  bool wake;
  {
    MutexLock lock(&mu_);
    id = next_id_++;
    timers_.emplace(fire_at, Timer{id, std::move(action)});
    // The worker looks at the queue by itself at worker_wake_, so only a
    // deadline before that needs to wake it. Timers that are scheduled
    // and cancelled again while the worker sleeps cost no wake-up.
    wake = fire_at < worker_wake_;
    if (wake) {
      worker_wake_ = fire_at;
    }
  }
  if (wake) {
    cv_.NotifyOne();
  }
  return id;
}

bool ThreadScheduler::Cancel(TimerId id) {
  MutexLock lock(&mu_);
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->second.id == id) {
      timers_.erase(it);
      return true;
    }
  }
  return false;
}

void ThreadScheduler::Loop() {
  mu_.Lock();
  for (;;) {
    if (stopping_) {
      mu_.Unlock();
      return;
    }
    if (timers_.empty()) {
      // Spurious wakeups are fine: the loop head re-checks.
      worker_wake_ = Clock::time_point::max();
      cv_.Wait(&mu_);
      worker_wake_ = Clock::time_point::min();
      continue;
    }
    const auto next_fire = timers_.begin()->first;
    if (Clock::now() < next_fire) {
      worker_wake_ = next_fire;
      (void)cv_.WaitUntil(&mu_, next_fire);
      worker_wake_ = Clock::time_point::min();
      continue;
    }
    Timer timer = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    mu_.Unlock();
    timer.action();  // run outside the lock; action may reschedule
    mu_.Lock();
  }
}

}  // namespace polyvalue
