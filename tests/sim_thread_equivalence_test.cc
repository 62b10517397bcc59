// Sim-vs-thread equivalence: one seeded workload, four runtimes.
//
// The same deterministic transaction sequence is driven through a
// SimCluster and three ThreadClusters: on MemTransport, on MemTransport
// with a group-commit WAL, and on loopback TCP. All four runs must
// produce identical per-transaction outcomes and an identical final
// committed database — the runtime may only change WHEN things happen,
// never WHAT the protocol decides.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/net/tcp_transport.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

constexpr size_t kSites = 3;
constexpr int kItems = 8;
constexpr int kTxns = 30;
constexpr uint64_t kSeed = 0xC0FFEE;

std::string ItemName(int j) { return "item" + std::to_string(j); }

// One step of the workload, precomputed from the seed so every runtime
// executes the exact same transaction list.
struct Step {
  size_t coordinator;
  std::vector<int> items;  // distinct item indices
  int64_t delta;
};

std::vector<Step> MakeWorkload() {
  Rng rng(kSeed);
  std::vector<Step> steps;
  for (int i = 0; i < kTxns; ++i) {
    Step step;
    step.coordinator = rng.NextBelow(kSites);
    const int first = static_cast<int>(rng.NextBelow(kItems));
    step.items.push_back(first);
    if (rng.NextBelow(2) == 1) {
      const int second = static_cast<int>(rng.NextBelow(kItems));
      if (second != first) {
        step.items.push_back(second);
      }
    }
    step.delta = rng.NextInt(1, 9);
    steps.push_back(std::move(step));
  }
  return steps;
}

TxnSpec SpecFor(const Step& step,
                const std::function<SiteId(int)>& owner_of) {
  TxnSpec spec;
  for (int item : step.items) {
    spec.ReadWrite(ItemName(item), owner_of(item));
  }
  spec.Logic([step](const TxnReads& reads) {
    TxnEffect e;
    for (int item : step.items) {
      e.writes[ItemName(item)] =
          Value::Int(reads.IntAt(ItemName(item)) + step.delta);
    }
    return e;
  });
  return spec;
}

// What a run produces: the per-step commit/abort sequence and each
// site's final certain database.
struct RunResult {
  std::vector<bool> outcomes;
  // site index -> key -> final certain value
  std::vector<std::map<std::string, Value>> db;

  bool operator==(const RunResult& other) const {
    return outcomes == other.outcomes && db == other.db;
  }
};

// Quiescent: decision distributed, every lock released, every
// polyvalue reduced. The workload waits for this between transactions —
// the client callback fires at decision time, BEFORE the COMPLETE round
// releases participant locks, so back-to-back submissions would hit
// transient lock conflicts and make outcomes timing-dependent.
template <typename Cluster>
bool Quiescent(Cluster& cluster) {
  for (size_t s = 0; s < kSites; ++s) {
    if (cluster.site(s).store().UncertainCount() != 0 ||
        cluster.site(s).store().locked_count() != 0) {
      return false;
    }
  }
  return true;
}

template <typename Cluster>
std::vector<std::map<std::string, Value>> SnapshotDb(Cluster& cluster) {
  std::vector<std::map<std::string, Value>> db(kSites);
  for (size_t s = 0; s < kSites; ++s) {
    cluster.site(s).store().ForEach(
        [&db, s](const ItemKey& key, const PolyValue& value) {
          ASSERT_TRUE(value.is_certain()) << key << " still uncertain";
          db[s][key] = value.certain_value();
        });
  }
  return db;
}

EngineConfig Config(ProtocolLeg leg = ProtocolLeg::kTwoPhase) {
  EngineConfig config;
  config.prepare_timeout = 1.0;
  config.ready_timeout = 1.0;
  config.wait_timeout = 0.5;
  config.inquiry_interval = 0.1;
  config.leg = leg;
  config.paxos_failover_timeout = 0.3;
  return config;
}

RunResult RunOnSim(ProtocolLeg leg = ProtocolLeg::kTwoPhase) {
  SimCluster::Options options;
  options.site_count = kSites;
  options.engine = Config(leg);
  options.seed = kSeed;
  SimCluster cluster(options);
  for (int j = 0; j < kItems; ++j) {
    cluster.Load(j % kSites, ItemName(j), Value::Int(0));
  }
  RunResult run;
  const auto owner_of = [&cluster](int item) {
    return cluster.site_id(item % kSites);
  };
  for (const Step& step : MakeWorkload()) {
    const auto result =
        cluster.SubmitAndRun(step.coordinator, SpecFor(step, owner_of));
    run.outcomes.push_back(result.has_value() && result->committed());
    for (int i = 0; i < 600 && !Quiescent(cluster); ++i) {
      cluster.RunFor(0.05);
    }
  }
  EXPECT_TRUE(Quiescent(cluster));
  run.db = SnapshotDb(cluster);
  return run;
}

// `transport` null runs on the cluster's own MemTransport.
RunResult RunOnThreads(const std::string& wal_dir,
                       ProtocolLeg leg = ProtocolLeg::kTwoPhase,
                       Transport* transport = nullptr) {
  ThreadCluster::Options options;
  options.site_count = kSites;
  options.engine = Config(leg);
  options.seed = kSeed;
  options.transport = transport;
  if (!wal_dir.empty()) {
    options.wal_dir = wal_dir;
    options.wal.sync_policy = Wal::SyncPolicy::kGroupCommit;
  }
  ThreadCluster cluster(options);
  for (int j = 0; j < kItems; ++j) {
    cluster.Load(j % kSites, ItemName(j), Value::Int(0));
  }
  RunResult run;
  const auto owner_of = [&cluster](int item) {
    return cluster.site_id(item % kSites);
  };
  for (const Step& step : MakeWorkload()) {
    const auto result = cluster.SubmitAndWait(
        step.coordinator, SpecFor(step, owner_of), /*timeout_seconds=*/20.0);
    run.outcomes.push_back(result.has_value() && result->committed());
    for (int i = 0; i < 4000 && !Quiescent(cluster); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(Quiescent(cluster));
  run.db = SnapshotDb(cluster);
  return run;
}

TEST(SimThreadEquivalenceTest, FourRuntimesOneHistory) {
  // The workload is sequential (each transaction completes before the
  // next is submitted), so every runtime must commit all of them and
  // land on the same database.
  const RunResult sim = RunOnSim();
  for (bool committed : sim.outcomes) {
    EXPECT_TRUE(committed);
  }

  const RunResult threads = RunOnThreads("");
  EXPECT_TRUE(sim == threads) << "threaded runtime diverged from simulator";

  const std::string wal_dir = testing::TempDir() + "equiv_wal";
  std::remove((wal_dir + "/site0.wal").c_str());
  std::remove((wal_dir + "/site1.wal").c_str());
  std::remove((wal_dir + "/site2.wal").c_str());
  mkdir(wal_dir.c_str(), 0755);
  const RunResult threads_wal = RunOnThreads(wal_dir);
  EXPECT_TRUE(sim == threads_wal)
      << "group-commit threaded runtime diverged from simulator";

  TcpTransport tcp;
  const RunResult threads_tcp =
      RunOnThreads("", ProtocolLeg::kTwoPhase, &tcp);
  EXPECT_TRUE(sim == threads_tcp)
      << "threaded runtime over TCP diverged from simulator";
}

TEST(SimThreadEquivalenceTest, PaxosLegAgreesAcrossRuntimes) {
  // The Paxos Commit leg must make the SAME decisions as it does on the
  // simulator when run on real threads: runtimes change scheduling,
  // never protocol outcomes. The sequential workload commits everywhere
  // and both runtimes land on the identical database — which must also
  // equal what 2PC commits for this contention-free history.
  const RunResult sim_paxos = RunOnSim(ProtocolLeg::kPaxosCommit);
  for (bool committed : sim_paxos.outcomes) {
    EXPECT_TRUE(committed);
  }

  const RunResult threads_paxos = RunOnThreads("", ProtocolLeg::kPaxosCommit);
  EXPECT_TRUE(sim_paxos == threads_paxos)
      << "threaded Paxos runtime diverged from simulator";

  const RunResult sim_2pc = RunOnSim();
  EXPECT_TRUE(sim_paxos.db == sim_2pc.db)
      << "Paxos Commit and 2PC disagree on a contention-free history";
}

}  // namespace
}  // namespace polyvalue
