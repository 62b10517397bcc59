// Integration tests on the threaded runtimes: the same engine driven by
// real threads over the in-memory transport and over TCP loopback.
#include <gtest/gtest.h>

#include <atomic>

#include "src/net/tcp_transport.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

EngineConfig ThreadConfig() {
  EngineConfig config;
  config.prepare_timeout = 1.0;
  config.ready_timeout = 1.0;
  config.wait_timeout = 0.5;
  config.inquiry_interval = 0.1;
  return config;
}

TxnSpec Increment(const ItemKey& key, SiteId site) {
  TxnSpec spec;
  spec.ReadWrite(key, site);
  spec.Logic([key](const TxnReads& reads) {
    TxnEffect e;
    e.writes[key] = Value::Int(reads.IntAt(key) + 1);
    return e;
  });
  return spec;
}

TEST(ThreadClusterTest, CrossSiteTransactionOverMemTransport) {
  ThreadCluster::Options options;
  options.site_count = 3;
  options.engine = ThreadConfig();
  ThreadCluster cluster(options);
  cluster.Load(1, "a", Value::Int(10));
  cluster.Load(2, "b", Value::Int(20));
  TxnSpec spec;
  spec.ReadWrite("a", cluster.site_id(1));
  spec.ReadWrite("b", cluster.site_id(2));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["a"] = Value::Int(reads.IntAt("a") - 5);
    e.writes["b"] = Value::Int(reads.IntAt("b") + 5);
    e.output = Value::Bool(true);
    return e;
  });
  const auto result = cluster.SubmitAndWait(0, std::move(spec));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed());
  // Wait for COMPLETE to land at both participants.
  for (int i = 0; i < 200; ++i) {
    const auto a = cluster.site(1).Peek("a");
    const auto b = cluster.site(2).Peek("b");
    if (a.value().is_certain() &&
        a.value().certain_value() == Value::Int(5) &&
        b.value().is_certain() &&
        b.value().certain_value() == Value::Int(25)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(cluster.site(1).Peek("a").value().certain_value(),
            Value::Int(5));
  EXPECT_EQ(cluster.site(2).Peek("b").value().certain_value(),
            Value::Int(25));
}

TEST(ThreadClusterTest, ConcurrentDisjointTransactionsAllCommit) {
  ThreadCluster::Options options;
  options.site_count = 4;
  options.engine = ThreadConfig();
  ThreadCluster cluster(options);
  for (int i = 0; i < 16; ++i) {
    cluster.Load(i % 4, "k" + std::to_string(i), Value::Int(0));
  }
  std::atomic<int> committed{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 16; ++i) {
    clients.emplace_back([&cluster, &committed, i] {
      const auto result = cluster.SubmitAndWait(
          i % 4,
          Increment("k" + std::to_string(i), cluster.site_id(i % 4)));
      if (result.has_value() && result->committed()) {
        ++committed;
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(committed.load(), 16);
}

TEST(ThreadClusterTest, ContendedItemSerialises) {
  ThreadCluster::Options options;
  options.site_count = 2;
  options.engine = ThreadConfig();
  ThreadCluster cluster(options);
  cluster.Load(1, "hot", Value::Int(0));
  std::atomic<int> committed{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&cluster, &committed] {
      for (int attempt = 0; attempt < 20; ++attempt) {
        const auto result =
            cluster.SubmitAndWait(0, Increment("hot", cluster.site_id(1)));
        if (result.has_value() && result->committed()) {
          ++committed;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  // Every client eventually succeeded exactly once and the counter shows
  // no lost updates.
  EXPECT_EQ(committed.load(), 8);
  for (int i = 0; i < 400; ++i) {
    const auto v = cluster.site(1).Peek("hot");
    if (v.ok() && v.value().is_certain() &&
        v.value().certain_value() == Value::Int(8)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(cluster.site(1).Peek("hot").value().certain_value(),
            Value::Int(8));
}

TEST(ThreadClusterTest, FullStackOverTcpLoopback) {
  TcpTransport tcp;
  ThreadCluster::Options options;
  options.site_count = 3;
  options.engine = ThreadConfig();
  options.transport = &tcp;
  ThreadCluster cluster(options);
  cluster.Load(1, "a", Value::Int(100));
  cluster.Load(2, "b", Value::Int(0));
  TxnSpec spec;
  spec.ReadWrite("a", cluster.site_id(1));
  spec.ReadWrite("b", cluster.site_id(2));
  spec.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["a"] = Value::Int(reads.IntAt("a") - 25);
    e.writes["b"] = Value::Int(reads.IntAt("b") + 25);
    return e;
  });
  const auto result = cluster.SubmitAndWait(0, std::move(spec), 15.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed());
  for (int i = 0; i < 400; ++i) {
    const auto a = cluster.site(1).Peek("a");
    const auto b = cluster.site(2).Peek("b");
    if (a.ok() && a.value().is_certain() &&
        a.value().certain_value() == Value::Int(75) && b.ok() &&
        b.value().is_certain() &&
        b.value().certain_value() == Value::Int(25)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(cluster.site(1).Peek("a").value().certain_value(),
            Value::Int(75));
  EXPECT_EQ(cluster.site(2).Peek("b").value().certain_value(),
            Value::Int(25));
}

TEST(ThreadClusterTest, ReadOnlyQueriesInParallel) {
  ThreadCluster::Options options;
  options.site_count = 2;
  options.engine = ThreadConfig();
  ThreadCluster cluster(options);
  cluster.Load(1, "x", Value::Int(99));
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&cluster, &answered] {
      // Read-only keys take shared locks, so the queries do not conflict
      // with each other; a client still retries any abort.
      for (int attempt = 0; attempt < 40; ++attempt) {
        TxnSpec spec;
        spec.Read("x", cluster.site_id(1));
        spec.Logic([](const TxnReads& reads) {
          TxnEffect e;
          e.output = Value::Int(reads.IntAt("x"));
          return e;
        });
        const auto result = cluster.SubmitAndWait(0, std::move(spec));
        if (result.has_value() && result->committed() &&
            result->output.certain_value() == Value::Int(99)) {
          ++answered;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(answered.load(), 8);
}

TEST(ThreadClusterTest, ConcurrentAuditsSeeConservedTotals) {
  // Uneven hops spread a COMPLETE's arrival across sites, which widens
  // the window in which a badly isolated audit could see half a transfer.
  FaultPlan faults;
  faults.SetDelayRange(0.0001, 0.0005);
  ThreadCluster::Options options;
  options.site_count = 3;
  options.engine = ThreadConfig();
  options.faults = &faults;
  ThreadCluster cluster(options);
  static constexpr int kItems = 12;
  constexpr int64_t kTotal = kItems * 100;
  auto key = [](int i) { return "acct" + std::to_string(i); };
  auto owner = [](int i) { return static_cast<size_t>(i % 3); };
  for (int i = 0; i < kItems; ++i) {
    cluster.Load(owner(i), key(i), Value::Int(100));
  }

  constexpr int kTransfersPerClient = 25;
  std::atomic<int> transfers{0};
  std::atomic<int> transfer_clients_done{0};
  std::atomic<int> audits{0};
  std::atomic<int> bad_totals{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (int n = 0; n < kTransfersPerClient; ++n) {
        // Items i and i+1 always live on different sites.
        const int from = (c * 7 + n * 5) % kItems;
        const int to = (from + 1) % kItems;
        // A transfer conflicts with every audit; retry a while.
        for (int attempt = 0; attempt < 50; ++attempt) {
          TxnSpec spec;
          spec.ReadWrite(key(from), cluster.site_id(owner(from)));
          spec.ReadWrite(key(to), cluster.site_id(owner(to)));
          spec.Logic([key, from, to](const TxnReads& reads) {
            TxnEffect e;
            e.writes[key(from)] = Value::Int(reads.IntAt(key(from)) - 3);
            e.writes[key(to)] = Value::Int(reads.IntAt(key(to)) + 3);
            return e;
          });
          const auto result = cluster.SubmitAndWait(c, std::move(spec));
          if (result.has_value() && result->committed()) {
            ++transfers;
            break;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      }
      ++transfer_clients_done;
    });
  }
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (int n = 0; n < 20 || transfer_clients_done.load() < 2; ++n) {
        // A whole-database audit: reads every item on every site.
        TxnSpec spec;
        for (int i = 0; i < kItems; ++i) {
          spec.Read(key(i), cluster.site_id(owner(i)));
        }
        spec.Logic([key](const TxnReads& reads) {
          int64_t sum = 0;
          for (int i = 0; i < kItems; ++i) {
            sum += reads.IntAt(key(i));
          }
          TxnEffect e;
          e.output = Value::Int(sum);
          return e;
        });
        const auto result = cluster.SubmitAndWait(c, std::move(spec));
        if (result.has_value() && result->committed()) {
          ++audits;
          if (!result->output.is_certain() ||
              result->output.certain_value() != Value::Int(kTotal)) {
            ++bad_totals;
          }
        }
        // Leave gaps: back-to-back readers would starve the writers.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_GT(transfers.load(), 0);
  EXPECT_GT(audits.load(), 0);
  EXPECT_EQ(bad_totals.load(), 0);
}

// Every site arms its protocol timeouts on its own timer thread. With
// 20 ms hops and a 1 ms in-doubt window, each participant's wait timer
// fires between its READY and the COMPLETE, so the participants install
// polyvalues, and the COMPLETE later reduces them back to certain values.
TEST(ThreadClusterTest, InDoubtTimeoutsFireOnEverySite) {
  FaultPlan faults;
  faults.SetDelayRange(0.02, 0.02);
  ThreadCluster::Options options;
  options.site_count = 3;
  options.engine = ThreadConfig();
  options.engine.wait_timeout = 0.001;
  options.faults = &faults;
  ThreadCluster cluster(options);
  cluster.Load(1, "a", Value::Int(100));
  cluster.Load(2, "b", Value::Int(100));

  constexpr int kTransfers = 4;
  for (int n = 0; n < kTransfers; ++n) {
    // Alternate the direction: a -> b, then b -> a.
    const ItemKey from = n % 2 == 0 ? "a" : "b";
    const ItemKey to = n % 2 == 0 ? "b" : "a";
    TxnSpec spec;
    spec.ReadWrite("a", cluster.site_id(1));
    spec.ReadWrite("b", cluster.site_id(2));
    spec.Logic([from, to](const TxnReads& reads) {
      TxnEffect e;
      e.writes[from] = Value::Int(reads.IntAt(from) - 10);
      e.writes[to] = Value::Int(reads.IntAt(to) + 10);
      return e;
    });
    const auto result = cluster.SubmitAndWait(0, std::move(spec));
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->committed());
  }

  for (size_t site : {size_t{1}, size_t{2}}) {
    const EngineMetrics metrics = cluster.site(site).GetStats().engine;
    EXPECT_GT(metrics.wait_timeouts, 0u) << "site " << site;
    EXPECT_GT(metrics.polyvalue_installs, 0u) << "site " << site;
  }
  // Once the last COMPLETE has landed, every item is certain again and
  // the transfers conserved the total.
  auto settled = [&] {
    const auto a = cluster.site(1).Peek("a");
    const auto b = cluster.site(2).Peek("b");
    return a.value().is_certain() && b.value().is_certain() &&
           a.value().certain_value().int_value() +
                   b.value().certain_value().int_value() ==
               200;
  };
  for (int i = 0; i < 400 && !settled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(settled());
  EXPECT_EQ(cluster.site(1).Peek("a").value().certain_value(),
            Value::Int(100));
}

}  // namespace
}  // namespace polyvalue
