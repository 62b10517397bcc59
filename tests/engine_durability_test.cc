// The engine's durability rule under a group-commit WAL: a message or
// callback waits only for the WAL records it depends on — the records its
// own locked section appended and the records that wrote the values it
// read. Records nothing depends on stay buffered, and a site that loses
// them in a crash rebuilds the same state from its forced kPrepared
// record plus an inquiry.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "src/obs/audit.h"
#include "src/system/cluster.h"

namespace polyvalue {
namespace {

Wal::Options GroupCommit() {
  Wal::Options options;
  options.sync_policy = Wal::SyncPolicy::kGroupCommit;
  return options;
}

std::string TestPath(const std::string& stem) {
  return testing::TempDir() + stem + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

bool HoldsWrite(const std::vector<WalRecord>& records, const ItemKey& key,
                int64_t value) {
  for (const WalRecord& record : records) {
    if (record.type == WalRecordType::kWrite && record.key == key &&
        record.value == PolyValue::Certain(Value::Int(value))) {
      return true;
    }
  }
  return false;
}

// One participant engine driven message by message; every send records
// what the log file held at that moment.
class EngineDurabilityTest : public ::testing::Test {
 protected:
  static constexpr SiteId kCoordinator{1};
  static constexpr SiteId kSelf{2};

  struct Sent {
    Message msg;
    std::vector<WalRecord> durable;  // the log file at send time
  };

  void SetUp() override {
    path_ = TestPath("engine_durability") + ".wal";
    std::remove(path_.c_str());
    wal_ = Wal::Open(path_, GroupCommit()).value();
    engine_ = std::make_unique<TxnEngine>(
        kSelf, &items_, &outcomes_, &scheduler_,
        [this](SiteId, const Message& msg) {
          sent_.push_back({msg, Wal::ReplayFile(path_).value()});
        },
        EngineConfig());
    engine_->AttachWal(wal_.get());
    // Loads log no record.
    items_.Write("a", PolyValue::Certain(Value::Int(100)));
    items_.Write("b", PolyValue::Certain(Value::Int(0)));
  }

  void TearDown() override {
    engine_.reset();
    wal_.reset();
    std::remove(path_.c_str());
  }

  static TxnId Txn(uint64_t seq) {
    return TxnId((kCoordinator.value() << kTxnSiteShift) | seq);
  }

  // Drives `txn` through PREPARE, WRITE_REQ (key := value) and COMPLETE.
  void CommitWrite(TxnId txn, const ItemKey& key, int64_t value) {
    engine_->OnMessage(kCoordinator,
                       MakePrepare(txn, kCoordinator, {key}, {key}));
    engine_->OnMessage(
        kCoordinator,
        MakeWriteReq(txn, {{key, PolyValue::Certain(Value::Int(value))}}));
    engine_->OnMessage(kCoordinator, MakeComplete(txn));
  }

  // A remote audit of "a": PREPARE (read only), then the coordinator's
  // read-only release. Returns the value the reply carried.
  Value Audit(TxnId txn) {
    engine_->OnMessage(kCoordinator,
                       MakePrepare(txn, kCoordinator, {"a"}, {}));
    const Message& reply = sent_.back().msg;
    EXPECT_EQ(reply.type, MsgType::kPrepareReply);
    EXPECT_TRUE(reply.ok);
    const Value value = reply.values.at("a").certain_value();
    engine_->OnMessage(kCoordinator, MakeAbort(txn));
    return value;
  }

  std::string path_;
  ItemStore items_;
  OutcomeTable outcomes_;
  Simulator sim_;
  SimScheduler scheduler_{&sim_};
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<TxnEngine> engine_;
  std::vector<Sent> sent_;
};

TEST_F(EngineDurabilityTest, AuditsOverDurableItemsForceNothing) {
  // An item no logged record wrote needs no flush to be read.
  EXPECT_EQ(Audit(Txn(1)), Value::Int(100));
  EXPECT_EQ(wal_->batches_flushed(), 0u);

  CommitWrite(Txn(2), "a", 70);
  ASSERT_TRUE(wal_->Flush().ok());
  // A later write to another item leaves its install records buffered.
  CommitWrite(Txn(5), "b", 5);
  const uint64_t batches = wal_->batches_flushed();
  const uint64_t flushed = wal_->records_flushed();
  ASSERT_LT(flushed, wal_->records_appended());

  // Remote audits and a local fast-path audit of the now-durable item.
  EXPECT_EQ(Audit(Txn(3)), Value::Int(70));
  EXPECT_EQ(Audit(Txn(4)), Value::Int(70));
  std::optional<TxnResult> local;
  TxnSpec spec;
  spec.Read("a", kSelf);
  spec.Logic([](const TxnReads& reads) {
    TxnEffect effect;
    effect.output = Value::Int(reads.IntAt("a"));
    return effect;
  });
  engine_->Submit(std::move(spec),
                  [&local](const TxnResult& r) { local = r; });
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->disposition, TxnDisposition::kReadOnly);
  EXPECT_EQ(local->output.certain_value(), Value::Int(70));

  // None of them waited for b's records, let alone forced a flush.
  EXPECT_EQ(wal_->batches_flushed(), batches);
  EXPECT_EQ(wal_->records_flushed(), flushed);
  EXPECT_EQ(items_.locked_count(), 0u);
}

TEST_F(EngineDurabilityTest, ReadyWaitsForThePreparedRecord) {
  const TxnId txn = Txn(1);
  engine_->OnMessage(kCoordinator,
                     MakePrepare(txn, kCoordinator, {"a"}, {"a"}));
  engine_->OnMessage(
      kCoordinator,
      MakeWriteReq(txn, {{"a", PolyValue::Certain(Value::Int(70))}}));
  ASSERT_EQ(sent_.back().msg.type, MsgType::kReady);
  ASSERT_FALSE(sent_.back().durable.empty());
  EXPECT_EQ(sent_.back().durable.back().type, WalRecordType::kPrepared);
  EXPECT_EQ(sent_.back().durable.back().txn, txn);
}

TEST_F(EngineDurabilityTest, PrepareReplyWaitsForTheInstallItReads) {
  CommitWrite(Txn(1), "a", 70);
  // COMPLETE sent nothing, so its install is still buffered.
  ASSERT_LT(wal_->records_flushed(), wal_->records_appended());
  ASSERT_FALSE(HoldsWrite(Wal::ReplayFile(path_).value(), "a", 70));

  // The reply exposes a = 70: it leaves only once that write is durable.
  EXPECT_EQ(Audit(Txn(2)), Value::Int(70));
  const Sent& reply = sent_.back();
  EXPECT_EQ(reply.msg.type, MsgType::kPrepareReply);
  EXPECT_TRUE(HoldsWrite(reply.durable, "a", 70));
}

// A three-site simulated cluster whose sites log to group-commit WALs.
class LazyRecordRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) {
      paths_[i] = TestPath("lazy_recovery") + "_site" + std::to_string(i) +
                  ".wal";
      std::remove(paths_[i].c_str());
    }
    faults_.SetDelayRange(0.01, 0.01);
    transport_ = std::make_unique<SimTransport>(&sim_, &faults_, &rng_);
    transport_->set_trace(&trace_);
    scheduler_ = std::make_unique<SimScheduler>(&sim_);
    for (int i = 0; i < 3; ++i) {
      sites_[i] = MakeSite(i);
      ASSERT_TRUE(sites_[i]->Start().ok());
    }
  }

  void TearDown() override {
    for (int i = 0; i < 3; ++i) {
      sites_[i].reset();
      std::remove(paths_[i].c_str());
    }
  }

  std::unique_ptr<Site> MakeSite(int index) {
    Site::Options options;
    options.engine.wait_timeout = 0.05;
    options.engine.inquiry_interval = 0.2;
    options.engine.validate_installs = true;
    options.wal_path = paths_[index];
    options.wal = GroupCommit();
    options.trace = &trace_;
    return std::make_unique<Site>(SiteId(index + 1), transport_.get(),
                                  scheduler_.get(), options);
  }

  std::optional<TxnResult> Run(TxnSpec spec) {
    std::optional<TxnResult> result;
    sites_[0]->Submit(std::move(spec),
                      [&result](const TxnResult& r) { result = r; });
    sim_.RunUntil(sim_.now() + 1.0);
    return result;
  }

  int64_t Balance(int index, const ItemKey& key) {
    const PolyValue value = sites_[index]->Peek(key).value();
    EXPECT_TRUE(value.is_certain()) << key << " = " << value.ToString();
    return value.is_certain() ? value.certain_value().int_value() : 0;
  }

  VectorTraceSink trace_;
  Simulator sim_;
  FaultPlan faults_;
  Rng rng_{23};
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<SimScheduler> scheduler_;
  std::string paths_[3];
  std::unique_ptr<Site> sites_[3];
};

TEST_F(LazyRecordRecoveryTest, ParticipantRebuildsLostCompleteFromItsLog) {
  const SiteId a_site(2), b_site(3);
  // Seed both accounts through a logged transaction.
  TxnSpec seed;
  seed.Write("a", a_site).Write("b", b_site);
  seed.Logic([](const TxnReads&) {
    TxnEffect e;
    e.writes["a"] = Value::Int(100);
    e.writes["b"] = Value::Int(0);
    return e;
  });
  ASSERT_TRUE(Run(std::move(seed))->committed());

  TxnSpec transfer;
  transfer.ReadWrite("a", a_site).ReadWrite("b", b_site);
  transfer.Logic([](const TxnReads& reads) {
    TxnEffect e;
    e.writes["a"] = Value::Int(reads.IntAt("a") - 30);
    e.writes["b"] = Value::Int(reads.IntAt("b") + 30);
    return e;
  });
  const std::optional<TxnResult> result = Run(std::move(transfer));
  ASSERT_TRUE(result.has_value() && result->committed());
  const TxnId txn = result->id;
  ASSERT_EQ(Balance(1, "a"), 70);

  // Site a_site applied COMPLETE but sent nothing since: its install,
  // kPreparedResolved and outcome records were never flushed. The file
  // holds exactly what a crash now would leave: up to the forced vote.
  const Wal* wal = sites_[1]->wal();
  ASSERT_LT(wal->records_flushed(), wal->records_appended());
  const std::vector<WalRecord> durable = Wal::ReplayFile(paths_[1]).value();
  ASSERT_FALSE(durable.empty());
  EXPECT_EQ(durable.back().type, WalRecordType::kPrepared);
  EXPECT_EQ(durable.back().txn, txn);
  std::string crash_image;
  {
    std::ifstream in(paths_[1], std::ios::binary);
    crash_image.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  // Crash: the site dies (its clean shutdown would flush the buffer, so
  // the file is put back to the crash image) and restarts from the log.
  faults_.SetSiteDown(a_site, true);
  sites_[1].reset();
  {
    std::ofstream out(paths_[1], std::ios::binary | std::ios::trunc);
    out.write(crash_image.data(),
              static_cast<std::streamsize>(crash_image.size()));
  }
  sites_[1] = MakeSite(1);
  ASSERT_TRUE(sites_[1]->Start().ok());
  faults_.SetSiteDown(a_site, false);
  sites_[1]->engine().Recover();

  // Back in doubt about the transfer: a holds {70 if T, 100 if not T}.
  const PolyValue in_doubt = sites_[1]->Peek("a").value();
  ASSERT_FALSE(in_doubt.is_certain());
  EXPECT_EQ(in_doubt.ValueUnder({{txn, true}}).value(), Value::Int(70));
  EXPECT_EQ(in_doubt.ValueUnder({{txn, false}}).value(), Value::Int(100));

  // The inquiry reaches the coordinator's forced decision.
  sim_.RunUntil(sim_.now() + 2.0);
  EXPECT_GE(sites_[1]->engine().metrics().outcome_inquiries, 1u);
  EXPECT_EQ(Balance(1, "a"), 70);
  EXPECT_EQ(Balance(1, "a") + Balance(2, "b"), 100);
  EXPECT_EQ(sites_[1]->store().locked_count(), 0u);
  const Status audit = TraceAuditor::Check(trace_.Snapshot());
  EXPECT_TRUE(audit.ok()) << audit.message();
}

}  // namespace
}  // namespace polyvalue
