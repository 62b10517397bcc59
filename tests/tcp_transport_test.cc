// Tests for the TCP loopback transport.
#include "src/net/tcp_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/common/thread_annotations.h"

namespace polyvalue {
namespace {

const SiteId kA(1);
const SiteId kB(2);

// Waits until `predicate` holds or ~2 seconds pass.
template <typename Pred>
bool WaitFor(Pred predicate) {
  for (int i = 0; i < 400; ++i) {
    if (predicate()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

TEST(TcpTransportTest, EndpointsGetPorts) {
  TcpTransport transport;
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport.Register(kB, [](Packet) {}).ok());
  EXPECT_NE(transport.PortOf(kA), 0);
  EXPECT_NE(transport.PortOf(kB), 0);
  EXPECT_NE(transport.PortOf(kA), transport.PortOf(kB));
}

TEST(TcpTransportTest, RoundTripOverRealSockets) {
  TcpTransport transport;
  std::atomic<int> got{0};
  Mutex mu;
  Packet last;
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport
                  .Register(kB,
                            [&](Packet p) {
                              MutexLock lock(&mu);
                              last = p;
                              ++got;
                            })
                  .ok());
  ASSERT_TRUE(transport.Send({kA, kB, "over tcp"}).ok());
  ASSERT_TRUE(WaitFor([&] { return got.load() == 1; }));
  MutexLock lock(&mu);
  EXPECT_EQ(last.payload, "over tcp");
  EXPECT_EQ(last.from, kA);
  EXPECT_EQ(last.to, kB);
}

TEST(TcpTransportTest, ManyFramesInOrderOverOneConnection) {
  TcpTransport transport;
  Mutex mu;
  std::vector<std::string> payloads;
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport
                  .Register(kB,
                            [&](Packet p) {
                              bool first;
                              {
                                MutexLock lock(&mu);
                                first = payloads.empty();
                                payloads.push_back(p.payload);
                              }
                              if (first) {
                                // Stall the reader so the rest of the
                                // burst piles up and lands in a few reads.
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(100));
                              }
                            })
                  .ok());
  // Many small frames per read: each read is drained by offset, with one
  // partial frame carried over, and compacted once.
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(transport.Send({kA, kB, std::to_string(i)}).ok());
  }
  ASSERT_TRUE(WaitFor([&] {
    MutexLock lock(&mu);
    return payloads.size() == static_cast<size_t>(n);
  }));
  MutexLock lock(&mu);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(payloads[i], std::to_string(i));
  }
}

// Every ping and pong after the first is sent by a handler on the
// sender's own io thread, which skips the eventfd wake. Each must still
// leave before the loop blocks: a stranded send would wait out the 50 ms
// epoll timeout, and 500 rounds would take 25 s or more.
TEST(TcpTransportTest, RepliesFromHandlersAreNotStranded) {
  constexpr int kRounds = 500;
  std::atomic<int> pongs{0};  // outlives the transport's io threads
  TcpTransport transport;
  ASSERT_TRUE(transport
                  .Register(kA,
                            [&](Packet) {
                              if (++pongs < kRounds) {
                                EXPECT_TRUE(
                                    transport.Send({kA, kB, "ping"}).ok());
                              }
                            })
                  .ok());
  ASSERT_TRUE(transport
                  .Register(kB,
                            [&](Packet p) {
                              EXPECT_TRUE(
                                  transport.Send({kB, p.from, "pong"}).ok());
                            })
                  .ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(transport.Send({kA, kB, "ping"}).ok());
  for (int i = 0; i < 1000 && pongs.load() < kRounds; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(pongs.load(), kRounds);
  EXPECT_LT(elapsed, 5.0);
  EXPECT_EQ(transport.packets_delivered(), 2u * kRounds);
}

TEST(TcpTransportTest, LargePayload) {
  TcpTransport transport;
  std::atomic<bool> got{false};
  std::string received;
  Mutex mu;
  const std::string big(1 << 20, 'z');  // 1 MiB frame
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport
                  .Register(kB,
                            [&](Packet p) {
                              MutexLock lock(&mu);
                              received = p.payload;
                              got = true;
                            })
                  .ok());
  ASSERT_TRUE(transport.Send({kA, kB, big}).ok());
  ASSERT_TRUE(WaitFor([&] { return got.load(); }));
  MutexLock lock(&mu);
  EXPECT_EQ(received.size(), big.size());
  EXPECT_EQ(received, big);
}

TEST(TcpTransportTest, BidirectionalTraffic) {
  TcpTransport transport;
  std::atomic<int> a_got{0};
  std::atomic<int> b_got{0};
  ASSERT_TRUE(transport.Register(kA, [&](Packet) { ++a_got; }).ok());
  ASSERT_TRUE(transport.Register(kB, [&](Packet) { ++b_got; }).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(transport.Send({kA, kB, "ab"}).ok());
    ASSERT_TRUE(transport.Send({kB, kA, "ba"}).ok());
  }
  EXPECT_TRUE(WaitFor([&] { return a_got == 50 && b_got == 50; }));
}

TEST(TcpTransportTest, SendToUnknownSiteIsLostNotFatal) {
  TcpTransport transport;
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  EXPECT_TRUE(transport.Send({kA, SiteId(99), "void"}).ok());
}

TEST(TcpTransportTest, UnregisteredSenderRejected) {
  TcpTransport transport;
  EXPECT_FALSE(transport.Send({kA, kB, "x"}).ok());
}

TEST(TcpTransportTest, UnregisterThenTrafficContinuesElsewhere) {
  TcpTransport transport;
  std::atomic<int> got{0};
  ASSERT_TRUE(transport.Register(kA, [](Packet) {}).ok());
  ASSERT_TRUE(transport.Register(kB, [&](Packet) { ++got; }).ok());
  ASSERT_TRUE(transport.Send({kA, kB, "1"}).ok());
  ASSERT_TRUE(WaitFor([&] { return got.load() == 1; }));
  ASSERT_TRUE(transport.Unregister(kB).ok());
  EXPECT_TRUE(transport.Send({kA, kB, "2"}).ok());  // dropped quietly
  const SiteId kC(3);
  std::atomic<int> c_got{0};
  ASSERT_TRUE(transport.Register(kC, [&](Packet) { ++c_got; }).ok());
  ASSERT_TRUE(transport.Send({kA, kC, "3"}).ok());
  EXPECT_TRUE(WaitFor([&] { return c_got.load() == 1; }));
}

}  // namespace
}  // namespace polyvalue
