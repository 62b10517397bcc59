// Group-commit WAL tests: batch coalescing, the Flush() durability
// barrier, and an exhaustive torn-tail fuzz — truncating and bit-flipping
// every byte of the final batch must recover EXACTLY the acknowledged
// prefix: never DATA_LOSS for a torn tail, never a phantom record.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "src/store/wal.h"

namespace polyvalue {
namespace {

class WalGroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "wal_gc_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static Wal::Options GroupCommit(size_t max_batch = 128) {
    Wal::Options options;
    options.sync_policy = Wal::SyncPolicy::kGroupCommit;
    options.max_batch = max_batch;
    return options;
  }

  std::string ReadFile() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void WriteFile(const std::string& data) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  std::string path_;
};

TEST_F(WalGroupCommitTest, AppendsBufferUntilFlush) {
  auto wal = Wal::Open(path_, GroupCommit()).value();
  ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(1), true)).ok());
  ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(2), false)).ok());
  // Nothing on disk yet: appends only buffer.
  EXPECT_TRUE(Wal::ReplayFile(path_).value().empty());
  EXPECT_EQ(wal->batches_flushed(), 0u);

  ASSERT_TRUE(wal->Flush().ok());
  const auto records = Wal::ReplayFile(path_).value();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].txn, TxnId(1));
  EXPECT_EQ(records[1].txn, TxnId(2));
  // Both records rode ONE physical batch.
  EXPECT_EQ(wal->batches_flushed(), 1u);
  EXPECT_EQ(wal->records_flushed(), 2u);
}

TEST_F(WalGroupCommitTest, FlushIsIdempotentAndEmptyFlushIsFree) {
  auto wal = Wal::Open(path_, GroupCommit()).value();
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_EQ(wal->batches_flushed(), 0u);
  ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(1), true)).ok());
  ASSERT_TRUE(wal->Flush().ok());
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_EQ(wal->batches_flushed(), 1u);
  EXPECT_EQ(Wal::ReplayFile(path_).value().size(), 1u);
}

TEST_F(WalGroupCommitTest, MaxBatchTriggersInlineFlush) {
  auto wal = Wal::Open(path_, GroupCommit(/*max_batch=*/4)).value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(i + 1), true)).ok());
  }
  // The 4th append crossed max_batch and flushed without a barrier call.
  EXPECT_EQ(wal->batches_flushed(), 1u);
  EXPECT_EQ(Wal::ReplayFile(path_).value().size(), 4u);
}

TEST_F(WalGroupCommitTest, AppendReturnsConsecutiveLsns) {
  auto wal = Wal::Open(path_, GroupCommit()).value();
  EXPECT_EQ(wal->Append(WalRecord::Outcome(TxnId(1), true)).value(), 1u);
  EXPECT_EQ(wal->Append(WalRecord::Outcome(TxnId(2), true)).value(), 2u);
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_EQ(wal->Append(WalRecord::Outcome(TxnId(3), true)).value(), 3u);
  EXPECT_EQ(wal->records_appended(), 3u);
}

TEST_F(WalGroupCommitTest, FlushToLeavesLaterRecordsBuffered) {
  auto wal = Wal::Open(path_, GroupCommit()).value();
  const uint64_t first = wal->Append(WalRecord::Outcome(TxnId(1), true))
                             .value();
  ASSERT_TRUE(wal->FlushTo(first).ok());
  EXPECT_EQ(wal->batches_flushed(), 1u);
  const uint64_t second = wal->Append(WalRecord::Outcome(TxnId(2), true))
                              .value();
  // Record 1 is already durable: neither call writes record 2.
  ASSERT_TRUE(wal->FlushTo(first).ok());
  ASSERT_TRUE(wal->FlushTo(0).ok());
  EXPECT_EQ(wal->batches_flushed(), 1u);
  EXPECT_EQ(wal->records_flushed(), 1u);
  EXPECT_EQ(Wal::ReplayFile(path_).value().size(), 1u);
  ASSERT_TRUE(wal->FlushTo(second).ok());
  EXPECT_EQ(wal->batches_flushed(), 2u);
  EXPECT_EQ(Wal::ReplayFile(path_).value().size(), 2u);
}

TEST_F(WalGroupCommitTest, FlushToCarriesTheWholeBufferInOneBatch) {
  auto wal = Wal::Open(path_, GroupCommit()).value();
  const uint64_t first = wal->Append(WalRecord::Outcome(TxnId(1), true))
                             .value();
  ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(2), true)).ok());
  // The flush needed for record 1 costs one fsync either way, so it takes
  // record 2 along: the durable log stays a prefix of the appended one.
  ASSERT_TRUE(wal->FlushTo(first).ok());
  EXPECT_EQ(wal->batches_flushed(), 1u);
  EXPECT_EQ(wal->records_flushed(), 2u);
  EXPECT_EQ(Wal::ReplayFile(path_).value().size(), 2u);
}

TEST_F(WalGroupCommitTest, FlushToClampsToWhatWasAppended) {
  auto wal = Wal::Open(path_, GroupCommit()).value();
  ASSERT_TRUE(wal->FlushTo(5).ok());  // nothing appended: nothing to do
  EXPECT_EQ(wal->batches_flushed(), 0u);
  ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(1), true)).ok());
  ASSERT_TRUE(wal->FlushTo(1000).ok());
  ASSERT_TRUE(wal->FlushTo(1000).ok());  // returns: all of it is durable
  EXPECT_EQ(wal->batches_flushed(), 1u);
  EXPECT_EQ(Wal::ReplayFile(path_).value().size(), 1u);
}

TEST_F(WalGroupCommitTest, FlushToIsANoOpUnderPerAppendPolicies) {
  for (const bool sync_every_append : {false, true}) {
    std::remove(path_.c_str());
    auto wal = Wal::Open(path_, sync_every_append).value();
    EXPECT_EQ(wal->Append(WalRecord::Outcome(TxnId(1), true)).value(), 1u);
    EXPECT_EQ(wal->Append(WalRecord::Outcome(TxnId(2), true)).value(), 2u);
    // Each append already wrote its own frame.
    EXPECT_EQ(wal->batches_flushed(), 2u);
    ASSERT_TRUE(wal->FlushTo(2).ok());
    ASSERT_TRUE(wal->Flush().ok());
    EXPECT_EQ(wal->batches_flushed(), 2u);
    EXPECT_EQ(Wal::ReplayFile(path_).value().size(), 2u);
  }
}

TEST_F(WalGroupCommitTest, ConcurrentAppendersShareBatches) {
  // A small linger window makes leaders wait for joiners, so coalescing
  // happens even if the scheduler serialises the threads.
  Wal::Options options = GroupCommit();
  options.group_window_seconds = 0.002;
  auto wal = Wal::Open(path_, options).value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(
            wal->Append(WalRecord::Outcome(TxnId(t * kPerThread + i + 1),
                                           true))
                .ok());
        EXPECT_TRUE(wal->Flush().ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto records = Wal::ReplayFile(path_).value();
  EXPECT_EQ(records.size(), size_t{kThreads} * kPerThread);
  EXPECT_EQ(wal->records_flushed(), size_t{kThreads} * kPerThread);
  // The whole point: with 8 threads racing, flush leaders pick up
  // records appended by the other threads, so there are FEWER physical
  // batches than records. (Worst case equality would mean zero
  // coalescing ever happened across 400 concurrent flushes.)
  EXPECT_LT(wal->batches_flushed(), wal->records_flushed());
}

TEST_F(WalGroupCommitTest, GroupWindowLingersForJoiners) {
  Wal::Options options = GroupCommit();
  options.group_window_seconds = 0.002;
  auto wal = Wal::Open(path_, options).value();
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      EXPECT_TRUE(wal->Append(WalRecord::Outcome(TxnId(t + 1), true)).ok());
      EXPECT_TRUE(wal->Flush().ok());
      ++done;
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(done.load(), 4);
  EXPECT_EQ(Wal::ReplayFile(path_).value().size(), 4u);
}

TEST_F(WalGroupCommitTest, ResetDiscardsUnflushedRecords) {
  auto wal = Wal::Open(path_, GroupCommit()).value();
  ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(1), true)).ok());
  ASSERT_TRUE(wal->Reset().ok());
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_TRUE(Wal::ReplayFile(path_).value().empty());
  // The log still works after the reset.
  ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(2), true)).ok());
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_EQ(Wal::ReplayFile(path_).value().size(), 1u);
}

TEST_F(WalGroupCommitTest, DestructorFlushesBufferedRecords) {
  {
    auto wal = Wal::Open(path_, GroupCommit()).value();
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(7), true)).ok());
    // No explicit Flush: destruction is best-effort durable.
  }
  const auto records = Wal::ReplayFile(path_).value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn, TxnId(7));
}

TEST_F(WalGroupCommitTest, MixedBatchAndSingleFramesReplayInOrder) {
  {
    auto wal = Wal::Open(path_, GroupCommit()).value();
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(1), true)).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(2), false)).ok());
    ASSERT_TRUE(wal->Flush().ok());  // batch of 2
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(3), true)).ok());
    ASSERT_TRUE(wal->Flush().ok());  // single frame
  }
  // Append more with the plain per-append policy on the same file.
  {
    auto wal = Wal::Open(path_).value();
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(4), false)).ok());
  }
  const auto records = Wal::ReplayFile(path_).value();
  ASSERT_EQ(records.size(), 4u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].txn, TxnId(i + 1));
  }
}

// --- the torn-tail fuzz ---
//
// Layout: two ACKED batches (flushed, their records acknowledged), then
// one final batch. Damage the final batch at every byte offset — by
// truncation and by bit flip — and require recovery to return exactly
// the acked prefix, with OK status, every single time.

class WalTornTailFuzz : public WalGroupCommitTest {
 protected:
  // Writes the log and returns (acked record count, file size before the
  // final batch).
  void BuildLog() {
    auto wal = Wal::Open(path_, GroupCommit()).value();
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(1), true)).ok());
    ASSERT_TRUE(
        wal->Append(WalRecord::Write(
                        "acct/a", PolyValue::InstallUncertain(
                                      TxnId(1),
                                      PolyValue::Certain(Value::Int(10)),
                                      PolyValue::Certain(Value::Int(0)))))
            .ok());
    ASSERT_TRUE(wal->Flush().ok());  // acked batch #1 (2 records)
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(2), false)).ok());
    ASSERT_TRUE(wal->Flush().ok());  // acked batch #2 (1 record)
    acked_ = ReadFile();

    ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(3), true)).ok());
    ASSERT_TRUE(
        wal->Append(WalRecord::Write("acct/b",
                                     PolyValue::Certain(Value::Int(42))))
            .ok());
    ASSERT_TRUE(wal->Append(WalRecord::Outcome(TxnId(4), false)).ok());
    ASSERT_TRUE(wal->Flush().ok());  // the final batch (3 records)
    full_ = ReadFile();
    ASSERT_GT(full_.size(), acked_.size());
  }

  void ExpectExactlyAckedPrefix(const std::string& context) {
    const auto records = Wal::ReplayFile(path_);
    ASSERT_TRUE(records.ok()) << context << ": " << records.status();
    ASSERT_EQ(records->size(), 3u) << context;
    EXPECT_EQ((*records)[0].txn, TxnId(1)) << context;
    EXPECT_EQ((*records)[1].key, "acct/a") << context;
    EXPECT_EQ((*records)[2].txn, TxnId(2)) << context;
  }

  std::string acked_;
  std::string full_;
};

TEST_F(WalTornTailFuzz, EveryTruncationRecoversAckedPrefix) {
  BuildLog();
  // Every cut point inside the final batch, including cutting it off
  // entirely and leaving all but its last byte.
  for (size_t len = acked_.size(); len < full_.size(); ++len) {
    WriteFile(full_.substr(0, len));
    ExpectExactlyAckedPrefix("truncated to " + std::to_string(len));
  }
}

TEST_F(WalTornTailFuzz, EveryByteCorruptionRecoversAckedPrefix) {
  BuildLog();
  for (size_t pos = acked_.size(); pos < full_.size(); ++pos) {
    for (int bit : {0, 3, 7}) {
      std::string damaged = full_;
      damaged[pos] = static_cast<char>(damaged[pos] ^ (1 << bit));
      WriteFile(damaged);
      ExpectExactlyAckedPrefix("bit " + std::to_string(bit) + " of byte " +
                               std::to_string(pos));
    }
  }
}

TEST_F(WalTornTailFuzz, IntactLogReplaysEverything) {
  BuildLog();
  const auto records = Wal::ReplayFile(path_).value();
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[3].txn, TxnId(3));
  EXPECT_EQ(records[4].key, "acct/b");
  EXPECT_EQ(records[5].txn, TxnId(4));
}

TEST_F(WalTornTailFuzz, CorruptionBeforeIntactSuffixIsStillDataLoss) {
  BuildLog();
  // Flip a byte inside acked batch #1's BODY (past the two batch
  // headers' 8 bytes) while the rest of the file stays intact: that is
  // real mid-file corruption, not a torn tail, and recovery must say so
  // rather than silently dropping acknowledged records.
  std::string damaged = full_;
  damaged[10] = static_cast<char>(damaged[10] ^ 0x20);
  WriteFile(damaged);
  const auto records = Wal::ReplayFile(path_);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace polyvalue
