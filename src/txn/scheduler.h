// Timer scheduling abstraction.
//
// The protocol state machines need timeouts (prepare deadline, the
// in-doubt wait window, outcome-inquiry retries). They program them
// against this interface so the deterministic simulator and the real
// threaded runtime drive identical engine code.
#ifndef SRC_TXN_SCHEDULER_H_
#define SRC_TXN_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>

#include "src/common/thread_annotations.h"
#include "src/event/simulator.h"

namespace polyvalue {

class Scheduler {
 public:
  using TimerId = uint64_t;
  using Action = std::function<void()>;

  virtual ~Scheduler() = default;

  // Seconds since an arbitrary epoch.
  virtual double Now() const = 0;

  // Runs `action` after `delay_seconds`. Returns a cancellable id.
  virtual TimerId ScheduleAfter(double delay_seconds, Action action) = 0;

  // Cancels; returns false when the timer already fired or is unknown.
  virtual bool Cancel(TimerId id) = 0;
};

// Scheduler on the discrete-event simulator (deterministic).
class SimScheduler : public Scheduler {
 public:
  explicit SimScheduler(Simulator* sim) : sim_(sim) {}

  double Now() const override { return sim_->now(); }
  TimerId ScheduleAfter(double delay_seconds, Action action) override {
    return sim_->After(delay_seconds, std::move(action));
  }
  bool Cancel(TimerId id) override { return sim_->Cancel(id); }

 private:
  Simulator* sim_;
};

// Wall-clock scheduler with one worker thread.
//
// ThreadCluster gives each site its own ThreadScheduler, as each site of
// the paper keeps its own timeouts, so the engines of different sites
// never meet on this mutex. The engines call ScheduleAfter under their
// protocol mutex at every protocol step, and almost every such timer is
// cancelled within microseconds, so a site's queue is often empty. The
// hand-off is kept cheap: the worker records when it will next look at
// the queue by itself (`worker_wake_`), and ScheduleAfter wakes it only
// for a deadline before that. A cancelled earliest timer costs the
// worker one spurious wake-up at its old deadline. Cancel scans the
// pending timers: a site holds only a few when Cancel runs, so a scan is
// cheaper than keeping an index by id. All instances share one
// process-wide epoch, so Now() compares across sites.
class ThreadScheduler : public Scheduler {
 public:
  ThreadScheduler();
  ~ThreadScheduler() override;

  ThreadScheduler(const ThreadScheduler&) = delete;
  ThreadScheduler& operator=(const ThreadScheduler&) = delete;

  double Now() const override;
  TimerId ScheduleAfter(double delay_seconds, Action action) override;
  bool Cancel(TimerId id) override;

 private:
  void Loop();

  using Clock = std::chrono::steady_clock;

  struct Timer {
    TimerId id;
    Action action;
  };
  using Timers = std::multimap<Clock::time_point, Timer>;

  mutable Mutex mu_ POLYV_MUTEX_RANK(kScheduler);
  CondVar cv_;  // the worker's only waiter
  bool stopping_ GUARDED_BY(mu_) = false;
  TimerId next_id_ GUARDED_BY(mu_) = 1;
  // Pending timers in fire-time order. The worker removes a timer before
  // it runs the action, so Cancel of a fired id finds nothing.
  Timers timers_ GUARDED_BY(mu_);
  // When the worker will next look at the queue without being woken:
  // max() while it waits with nothing pending, its deadline while it
  // waits for one, min() while it is awake.
  Clock::time_point worker_wake_ GUARDED_BY(mu_) = Clock::time_point::min();
  Clock::time_point epoch_;  // the process-wide epoch
  std::thread worker_;
};

}  // namespace polyvalue

#endif  // SRC_TXN_SCHEDULER_H_
