#include "src/txn/scheduler.h"

#include <chrono>

namespace polyvalue {

ThreadScheduler::ThreadScheduler() : epoch_(Clock::now()) {
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
  bool new_earliest;
  {
    MutexLock lock(&mu_);
    id = next_id_++;
    const Timers::iterator it =
        timers_.emplace(fire_at, Timer{id, std::move(action)});
    new_earliest = it == timers_.begin();
  }
  // The worker sleeps until the earliest deadline it saw, so only a new
  // earliest deadline needs to wake it.
  if (new_earliest) {
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
      cv_.Wait(&mu_);
      continue;
    }
    const auto next_fire = timers_.begin()->first;
    if (Clock::now() < next_fire) {
      (void)cv_.WaitUntil(&mu_, next_fire);
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
