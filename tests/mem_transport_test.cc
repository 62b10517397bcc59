// Tests for the threaded in-memory transport.
#include "src/net/mem_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"

namespace polyvalue {
namespace {

const SiteId kA(1);
const SiteId kB(2);

TEST(MemTransportTest, DeliversAcrossThreads) {
  MemTransport transport;
  std::atomic<int> got{0};
  std::string payload;
  Mutex mu;
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport
                  .Register(kB,
                            [&](Packet p) {
                              MutexLock lock(&mu);
                              payload = p.payload;
                              ++got;
                            })
                  .ok());
  ASSERT_TRUE(transport.Send({kA, kB, "ping"}).ok());
  transport.Flush();
  EXPECT_EQ(got.load(), 1);
  MutexLock lock(&mu);
  EXPECT_EQ(payload, "ping");
}

TEST(MemTransportTest, ManyMessagesAllArrive) {
  MemTransport transport;
  std::atomic<int> got{0};
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(
      transport.Register(kB, [&](Packet) { ++got; }).ok());
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(transport.Send({kA, kB, "m"}).ok());
  }
  transport.Flush();
  EXPECT_EQ(got.load(), n);
  EXPECT_EQ(transport.packets_delivered(), static_cast<uint64_t>(n));
}

TEST(MemTransportTest, ConcurrentSenders) {
  MemTransport transport;
  std::atomic<int> got{0};
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport.Register(kB, [&](Packet) { ++got; }).ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&transport] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(transport.Send({kA, kB, "x"}).ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  transport.Flush();
  EXPECT_EQ(got.load(), kThreads * kPerThread);
}

TEST(MemTransportTest, HandlerMaySendReentrantly) {
  MemTransport transport;
  std::atomic<int> pongs{0};
  ASSERT_TRUE(transport
                  .Register(kA,
                            [&](const Packet& p) {
                              if (p.payload == "pong") {
                                ++pongs;
                              }
                            })
                  .ok());
  ASSERT_TRUE(transport
                  .Register(kB,
                            [&](Packet p) {
                              ASSERT_TRUE(transport
                                              .Send({kB, p.from, "pong"})
                                              .ok());
                            })
                  .ok());
  ASSERT_TRUE(transport.Send({kA, kB, "ping"}).ok());
  transport.Flush();
  EXPECT_EQ(pongs.load(), 1);
}

TEST(MemTransportTest, FaultPlanDropsAndCrashes) {
  FaultPlan faults;
  faults.SetDelayRange(0, 0);
  MemTransport transport(&faults);
  std::atomic<int> got{0};
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport.Register(kB, [&](Packet) { ++got; }).ok());
  faults.SetSiteDown(kB, true);
  ASSERT_TRUE(transport.Send({kA, kB, "lost"}).ok());
  transport.Flush();
  EXPECT_EQ(got.load(), 0);
  faults.SetSiteDown(kB, false);
  ASSERT_TRUE(transport.Send({kA, kB, "found"}).ok());
  transport.Flush();
  EXPECT_EQ(got.load(), 1);
}

TEST(MemTransportTest, DelayedDeliveryRespectsDeadline) {
  FaultPlan faults;
  faults.SetDelayRange(0.05, 0.05);
  MemTransport transport(&faults);
  std::atomic<int> got{0};
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport.Register(kB, [&](Packet) { ++got; }).ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(transport.Send({kA, kB, "slow"}).ok());
  transport.Flush();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(got.load(), 1);
  EXPECT_GE(std::chrono::duration<double>(elapsed).count(), 0.045);
}

// A per-link override (the WAN model's substrate) applies on the
// threaded runtime exactly as on the simulator.
TEST(MemTransportTest, LinkDelayOverrideApplies) {
  FaultPlan faults;
  faults.SetDelayRange(0, 0);
  faults.SetLinkDelayRange(kA, kB, 0.05, 0.05);
  MemTransport transport(&faults);
  std::atomic<int> got{0};
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport.Register(kB, [&](Packet) { ++got; }).ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(transport.Send({kA, kB, "wan"}).ok());
  transport.Flush();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(got.load(), 1);
  EXPECT_GE(std::chrono::duration<double>(elapsed).count(), 0.05);
}

TEST(MemTransportTest, UnregisterIsCleanWhileTrafficFlows) {
  MemTransport transport;
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport.Register(kB, [](Packet) {}).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(transport.Send({kA, kB, "x"}).ok());
  }
  EXPECT_TRUE(transport.Unregister(kB).ok());
  // Sends to a gone receiver are dropped, not errors.
  EXPECT_TRUE(transport.Send({kA, kB, "late"}).ok());
}

// Send resolves the receiver's mailbox and queues into it after leaving
// the registry lock, so an Unregister may complete in between. The
// mailbox must outlive every such Send (run this under ASan/TSan).
TEST(MemTransportTest, UnregisterWhileSendersTarget) {
  MemTransport transport;
  std::atomic<int> got{0};
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport.Register(kB, [&](Packet) { ++got; }).ok());
  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> sent{0};
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&] {
      while (!stop) {
        EXPECT_TRUE(transport.Send({kA, kB, "x"}).ok());
        ++sent;
      }
    });
  }
  while (sent < 1000 || got == 0) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(transport.Unregister(kB).ok());
  const int at_unregister = got.load();
  const int sent_before_stop = sent.load();
  while (sent < sent_before_stop + 1000) {
    std::this_thread::yield();
  }
  stop = true;
  for (auto& sender : senders) {
    sender.join();
  }
  transport.Flush();
  // Nothing reaches the handler once Unregister has returned.
  EXPECT_EQ(got.load(), at_unregister);
  EXPECT_EQ(transport.packets_delivered(), static_cast<uint64_t>(got.load()));
}

TEST(MemTransportTest, DeliveredCountMatchesHandlerCallsAfterFlush) {
  FaultPlan faults;
  faults.SetDelayRange(0, 0.001);
  faults.SetDropProbability(0.2);
  MemTransport transport(&faults, /*seed=*/7);
  std::atomic<int> got{0};
  ASSERT_TRUE(transport.Register(kA, [&](Packet) { ++got; }).ok());
  ASSERT_TRUE(transport.Register(kB, [&](Packet) { ++got; }).ok());
  std::vector<std::thread> senders;
  for (int t = 0; t < 4; ++t) {
    senders.emplace_back([&transport, t] {
      for (int i = 0; i < 250; ++i) {
        const bool to_b = (t + i) % 2 == 0;
        ASSERT_TRUE(
            transport.Send({to_b ? kA : kB, to_b ? kB : kA, "y"}).ok());
      }
    });
  }
  for (auto& sender : senders) {
    sender.join();
  }
  transport.Flush();
  EXPECT_EQ(transport.packets_sent(), 1000u);
  EXPECT_GT(got.load(), 0);
  EXPECT_LT(got.load(), 1000);  // some were dropped
  EXPECT_EQ(transport.packets_delivered(), static_cast<uint64_t>(got.load()));
}

}  // namespace
}  // namespace polyvalue
