// Tests for the scheduler abstraction (sim + wall clock).
#include "src/txn/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"

namespace polyvalue {
namespace {

TEST(SimSchedulerTest, DelegatesToSimulator) {
  Simulator sim;
  SimScheduler scheduler(&sim);
  double fired_at = -1;
  scheduler.ScheduleAfter(2.0, [&] { fired_at = scheduler.Now(); });
  sim.RunAll();
  EXPECT_DOUBLE_EQ(fired_at, 2.0);
}

TEST(SimSchedulerTest, CancelWorks) {
  Simulator sim;
  SimScheduler scheduler(&sim);
  bool fired = false;
  const auto id = scheduler.ScheduleAfter(1.0, [&] { fired = true; });
  EXPECT_TRUE(scheduler.Cancel(id));
  sim.RunAll();
  EXPECT_FALSE(fired);
}

TEST(ThreadSchedulerTest, FiresAfterDelay) {
  ThreadScheduler scheduler;
  std::atomic<bool> fired{false};
  const double start = scheduler.Now();
  scheduler.ScheduleAfter(0.05, [&] { fired = true; });
  for (int i = 0; i < 200 && !fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fired.load());
  EXPECT_GE(scheduler.Now() - start, 0.045);
}

TEST(ThreadSchedulerTest, OrderingOfMultipleTimers) {
  ThreadScheduler scheduler;
  Mutex mu;
  std::vector<int> order;
  std::atomic<int> done{0};
  scheduler.ScheduleAfter(0.09, [&] {
    MutexLock lock(&mu);
    order.push_back(3);
    ++done;
  });
  scheduler.ScheduleAfter(0.03, [&] {
    MutexLock lock(&mu);
    order.push_back(1);
    ++done;
  });
  scheduler.ScheduleAfter(0.06, [&] {
    MutexLock lock(&mu);
    order.push_back(2);
    ++done;
  });
  for (int i = 0; i < 400 && done < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  MutexLock lock(&mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadSchedulerTest, CancelBeforeFire) {
  ThreadScheduler scheduler;
  std::atomic<bool> fired{false};
  const auto id = scheduler.ScheduleAfter(0.2, [&] { fired = true; });
  EXPECT_TRUE(scheduler.Cancel(id));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(fired.load());
  EXPECT_FALSE(scheduler.Cancel(id));
}

TEST(ThreadSchedulerTest, ActionsMayReschedule) {
  ThreadScheduler scheduler;
  std::atomic<int> count{0};
  std::function<void()> tick = [&] {
    if (++count < 3) {
      scheduler.ScheduleAfter(0.01, tick);
    }
  };
  scheduler.ScheduleAfter(0.01, tick);
  for (int i = 0; i < 400 && count < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count.load(), 3);
}

// The worker sleeps until the earliest deadline it knows of, so a timer
// that becomes the new earliest must wake it: otherwise the 20 ms timer
// would wait behind the 10 s one.
TEST(ThreadSchedulerTest, NewEarliestDeadlineWakesWorker) {
  ThreadScheduler scheduler;
  std::atomic<bool> late_fired{false};
  std::atomic<bool> early_fired{false};
  scheduler.ScheduleAfter(10.0, [&] { late_fired = true; });
  // Let the worker go to sleep on the 10 s deadline first.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double start = scheduler.Now();
  scheduler.ScheduleAfter(0.02, [&] { early_fired = true; });
  for (int i = 0; i < 200 && !early_fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(early_fired.load());
  EXPECT_LT(scheduler.Now() - start, 1.0);
  EXPECT_FALSE(late_fired.load());
}

// A timer that was scheduled and cancelled leaves the worker a stale
// wake-up time. Once the worker has woken for it and found nothing, it
// waits with nothing pending, so the next timer, however late, must wake
// it: otherwise the 10 ms timer would never fire.
TEST(ThreadSchedulerTest, TimerAfterIdleWakesWorker) {
  ThreadScheduler scheduler;
  std::atomic<bool> fired{false};
  EXPECT_TRUE(scheduler.Cancel(scheduler.ScheduleAfter(0.01, [] {})));
  // Let the worker wake at the cancelled deadline and go idle.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double start = scheduler.Now();
  scheduler.ScheduleAfter(0.01, [&] { fired = true; });
  for (int i = 0; i < 200 && !fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fired.load());
  EXPECT_LT(scheduler.Now() - start, 1.0);
}

// Every ThreadScheduler counts from one process-wide epoch, so the
// sites of a ThreadCluster, each with its own scheduler, stamp their
// trace events on one time line.
TEST(ThreadSchedulerTest, SchedulersShareOneTimeBase) {
  ThreadScheduler first;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ThreadScheduler second;
  EXPECT_NEAR(first.Now(), second.Now(), 0.005);
}

TEST(ThreadSchedulerTest, CancelAmongManyPendingTimers) {
  ThreadScheduler scheduler;
  constexpr int kTimers = 1000;
  constexpr int kCancelled = 500;
  Mutex mu;
  std::vector<int> order;
  std::atomic<int> fired{0};
  std::vector<Scheduler::TimerId> ids;
  for (int i = 0; i < kTimers; ++i) {
    // 0.1 s out, 0.1 ms apart, so firing order is scheduling order.
    ids.push_back(scheduler.ScheduleAfter(0.1 + i * 1e-4, [&, i] {
      MutexLock lock(&mu);
      order.push_back(i);
      ++fired;
    }));
  }
  EXPECT_TRUE(scheduler.Cancel(ids[kCancelled]));
  EXPECT_FALSE(scheduler.Cancel(ids[kCancelled]));
  EXPECT_FALSE(scheduler.Cancel(ids.back() + 1));  // never issued
  for (int i = 0; i < 400 && fired < kTimers - 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(fired.load(), kTimers - 1);
  // A fired timer is no longer pending, so it cannot be cancelled.
  EXPECT_FALSE(scheduler.Cancel(ids.front()));
  EXPECT_FALSE(scheduler.Cancel(ids.back()));
  MutexLock lock(&mu);
  std::vector<int> expected;
  for (int i = 0; i < kTimers; ++i) {
    if (i != kCancelled) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(ThreadSchedulerTest, CancelOfFiredTimerReturnsFalse) {
  ThreadScheduler scheduler;
  std::atomic<bool> fired{false};
  const auto id = scheduler.ScheduleAfter(0.01, [&] { fired = true; });
  for (int i = 0; i < 200 && !fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(fired.load());
  EXPECT_FALSE(scheduler.Cancel(id));
}

TEST(ThreadSchedulerTest, DestructionWithPendingTimersIsClean) {
  std::atomic<bool> fired{false};
  {
    ThreadScheduler scheduler;
    scheduler.ScheduleAfter(10.0, [&] { fired = true; });
  }
  EXPECT_FALSE(fired.load());
}

}  // namespace
}  // namespace polyvalue
