// Stress for the sharded ItemStore and the engine hot path under real
// threads: disjoint key ranges must proceed in parallel without
// corruption, overlapping ranges must serialise without lost updates,
// and snapshot iteration must stay consistent while writers run. This
// is the suite the TSan CI job leans on.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/common/strings.h"
#include "src/store/item_store.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

std::string Key(int owner, int i) {
  return StrCat("r", owner, "/k", i);
}

TEST(ItemStoreShardStressTest, DisjointWritersNeverInterfere) {
  ItemStore store;
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 64;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kKeysPerThread; ++i) {
          store.Write(Key(t, i), PolyValue::Certain(Value::Int(round)));
          const auto read = store.Read(Key(t, i));
          EXPECT_TRUE(read.ok());
          EXPECT_EQ(read.value().certain_value(), Value::Int(round));
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(store.size(), size_t{kThreads} * kKeysPerThread);
  store.ForEach([](const ItemKey&, const PolyValue& value) {
    EXPECT_EQ(value.certain_value(), Value::Int(kRounds - 1));
  });
}

TEST(ItemStoreShardStressTest, IterationIsSafeAndSortedUnderWriters) {
  ItemStore store;
  for (int i = 0; i < 100; ++i) {
    store.Write(Key(0, i), PolyValue::Certain(Value::Int(0)));
  }
  std::atomic<bool> stop{false};
  std::thread writer([&store, &stop] {
    int round = 1;
    while (!stop.load()) {
      for (int i = 0; i < 100; ++i) {
        store.Write(Key(0, i), PolyValue::Certain(Value::Int(round)));
      }
      ++round;
    }
  });
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<ItemKey> seen;
    store.ForEach([&seen](const ItemKey& key, const PolyValue& value) {
      EXPECT_TRUE(value.is_certain());
      seen.push_back(key);
    });
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    EXPECT_EQ(store.UncertainCount(), 0u);
  }
  stop.store(true);
  writer.join();
}

TEST(ItemStoreShardStressTest, LockPlaneSerialisesOverlappingTxns) {
  ItemStore store;
  constexpr int kThreads = 8;
  constexpr int kAttemptsPerThread = 300;
  // All threads fight over the same 4 keys through the lock plane;
  // holders mutate, then release. No lost updates allowed.
  std::atomic<int> applied{0};
  for (int i = 0; i < 4; ++i) {
    store.Write(Key(9, i), PolyValue::Certain(Value::Int(0)));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &applied, t] {
      for (int a = 0; a < kAttemptsPerThread; ++a) {
        const TxnId txn(static_cast<uint64_t>(t) * kAttemptsPerThread + a +
                        1);
        const std::string key = Key(9, a % 4);
        if (!store.Lock(key, txn).ok()) {
          continue;  // contention abort, as the engine would
        }
        const auto read = store.Read(key);
        EXPECT_TRUE(read.ok());
        store.Write(key,
                    PolyValue::Certain(Value::Int(
                        read.value().certain_value().int_value() + 1)));
        ++applied;
        store.UnlockAll(txn);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  int64_t total = 0;
  for (int i = 0; i < 4; ++i) {
    total += store.Read(Key(9, i)).value().certain_value().int_value();
  }
  EXPECT_EQ(total, applied.load());
  EXPECT_GT(applied.load(), 0);
  EXPECT_EQ(store.locked_count(), 0u);
}

EngineConfig StressConfig() {
  EngineConfig config;
  config.prepare_timeout = 2.0;
  config.ready_timeout = 2.0;
  config.wait_timeout = 1.0;
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

TEST(EngineShardStressTest, DisjointAndOverlappingRangesThroughEngine) {
  ThreadCluster::Options options;
  options.site_count = 4;
  options.engine = StressConfig();
  ThreadCluster cluster(options);

  constexpr int kClients = 8;
  constexpr int kDisjointPerClient = 6;
  // Disjoint plane: client t owns keys d<t>/0..5 at site t%4.
  for (int t = 0; t < kClients; ++t) {
    for (int i = 0; i < kDisjointPerClient; ++i) {
      cluster.Load(t % 4, StrCat("d", t, "/", i),
                   Value::Int(0));
    }
  }
  // Overlap plane: two hot keys everyone fights over.
  cluster.Load(0, "hot/x", Value::Int(0));
  cluster.Load(1, "hot/y", Value::Int(0));

  std::atomic<int> disjoint_committed{0};
  std::atomic<int> hot_committed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&cluster, &disjoint_committed, &hot_committed,
                          t] {
      // Disjoint keys: must always commit (nobody else touches them).
      for (int i = 0; i < kDisjointPerClient; ++i) {
        const std::string key =
            StrCat("d", t, "/", i);
        const auto result = cluster.SubmitAndWait(
            (t + 1) % 4, Increment(key, cluster.site_id(t % 4)), 20.0);
        if (result.has_value() && result->committed()) {
          ++disjoint_committed;
        }
      }
      // Hot keys: retry until one increment lands.
      const std::string hot = (t % 2 == 0) ? "hot/x" : "hot/y";
      const SiteId owner = cluster.site_id(t % 2);
      for (int attempt = 0; attempt < 60; ++attempt) {
        const auto result =
            cluster.SubmitAndWait(t % 4, Increment(hot, owner), 20.0);
        if (result.has_value() && result->committed()) {
          ++hot_committed;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(disjoint_committed.load(), kClients * kDisjointPerClient);
  EXPECT_EQ(hot_committed.load(), kClients);

  // Settle, then audit: every disjoint key is exactly 1 and the hot keys
  // sum to the number of committed hot increments (no lost updates). The
  // client hears a commit at the coordinator's decision, before the
  // owner's COMPLETE installs it, so settling also waits for the locks.
  const auto settled = [&cluster] {
    for (size_t s = 0; s < 4; ++s) {
      if (cluster.site(s).store().UncertainCount() != 0 ||
          cluster.site(s).store().locked_count() != 0) {
        return false;
      }
    }
    return true;
  };
  for (int i = 0; i < 1000 && !settled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(settled());
  for (int t = 0; t < kClients; ++t) {
    for (int i = 0; i < kDisjointPerClient; ++i) {
      const std::string key =
          StrCat("d", t, "/", i);
      EXPECT_EQ(cluster.site(t % 4).Peek(key).value().certain_value(),
                Value::Int(1))
          << key;
    }
  }
  const int64_t hot_total =
      cluster.site(0).Peek("hot/x").value().certain_value().int_value() +
      cluster.site(1).Peek("hot/y").value().certain_value().int_value();
  EXPECT_EQ(hot_total, hot_committed.load());
}

}  // namespace
}  // namespace polyvalue
