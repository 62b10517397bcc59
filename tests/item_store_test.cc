// Unit tests for the per-site item store and its 2PL lock plane.
#include "src/store/item_store.h"

#include <gtest/gtest.h>

namespace polyvalue {
namespace {

const TxnId kT1(1);
const TxnId kT2(2);

TEST(ItemStoreTest, ReadMissingIsNotFound) {
  ItemStore store;
  EXPECT_EQ(store.Read("nope").status().code(), StatusCode::kNotFound);
}

TEST(ItemStoreTest, WriteThenRead) {
  ItemStore store;
  store.Write("k", PolyValue::Certain(Value::Int(5)));
  EXPECT_EQ(store.Read("k").value().certain_value(), Value::Int(5));
  EXPECT_TRUE(store.Contains("k"));
  EXPECT_EQ(store.size(), 1u);
}

TEST(ItemStoreTest, OverwriteReplaces) {
  ItemStore store;
  store.Write("k", PolyValue::Certain(Value::Int(1)));
  store.Write("k", PolyValue::Certain(Value::Int(2)));
  EXPECT_EQ(store.Read("k").value().certain_value(), Value::Int(2));
  EXPECT_EQ(store.size(), 1u);
}

TEST(ItemStoreTest, DefaultFactorySuppliesMissingItems) {
  ItemStore store([](const ItemKey& key) {
    return PolyValue::Certain(Value::Str(key));
  });
  EXPECT_EQ(store.Read("auto").value().certain_value(), Value::Str("auto"));
  // Factory reads do not persist the item.
  EXPECT_FALSE(store.Contains("auto"));
}

TEST(ItemStoreTest, UncertainCountTracksPolyvalues) {
  ItemStore store;
  store.Write("a", PolyValue::Certain(Value::Int(1)));
  EXPECT_EQ(store.UncertainCount(), 0u);
  store.Write("b", PolyValue::InstallUncertain(
                       kT1, PolyValue::Certain(Value::Int(2)),
                       PolyValue::Certain(Value::Int(3))));
  EXPECT_EQ(store.UncertainCount(), 1u);
  EXPECT_EQ(store.UncertainKeys(), std::vector<ItemKey>{"b"});
  store.Write("b", PolyValue::Certain(Value::Int(2)));
  EXPECT_EQ(store.UncertainCount(), 0u);
}

TEST(ItemStoreTest, ForEachVisitsAll) {
  ItemStore store;
  store.Write("a", PolyValue::Certain(Value::Int(1)));
  store.Write("b", PolyValue::Certain(Value::Int(2)));
  int64_t sum = 0;
  store.ForEach([&](const ItemKey&, const PolyValue& v) {
    sum += v.certain_value().int_value();
  });
  EXPECT_EQ(sum, 3);
}

TEST(ItemStoreLockTest, ExclusiveAcquisition) {
  ItemStore store;
  EXPECT_TRUE(store.Lock("k", kT1).ok());
  EXPECT_EQ(store.Lock("k", kT2).code(), StatusCode::kAborted);
  EXPECT_EQ(store.LockHolder("k"), kT1);
}

TEST(ItemStoreLockTest, ReentrantForSameTxn) {
  ItemStore store;
  EXPECT_TRUE(store.Lock("k", kT1).ok());
  EXPECT_TRUE(store.Lock("k", kT1).ok());
  EXPECT_EQ(store.locked_count(), 1u);
}

TEST(ItemStoreLockTest, UnlockAllReleasesEverything) {
  ItemStore store;
  EXPECT_TRUE(store.Lock("a", kT1).ok());
  EXPECT_TRUE(store.Lock("b", kT1).ok());
  EXPECT_TRUE(store.Lock("c", kT2).ok());
  store.UnlockAll(kT1);
  EXPECT_EQ(store.locked_count(), 1u);
  EXPECT_FALSE(store.LockHolder("a").has_value());
  EXPECT_TRUE(store.Lock("a", kT2).ok());
  EXPECT_EQ(store.LockHolder("c"), kT2);
}

TEST(ItemStoreLockTest, UnlockAllUnknownTxnIsNoOp) {
  ItemStore store;
  store.UnlockAll(kT1);
  EXPECT_EQ(store.locked_count(), 0u);
}

TEST(ItemStoreLockTest, LockOnNonexistentItemAllowed) {
  // Locks protect names, not stored values — a transaction creating a new
  // item must be able to lock it first.
  ItemStore store;
  EXPECT_TRUE(store.Lock("new-item", kT1).ok());
}

TEST(ItemStoreTest, WriteLsnTravelsWithTheItem) {
  ItemStore store([](const ItemKey&) {
    return PolyValue::Certain(Value::Int(0));
  });
  uint64_t lsn = 99;
  ASSERT_TRUE(store.Read("missing", &lsn).ok());
  EXPECT_EQ(lsn, 0u);  // a default-factory item was never logged
  store.Write("k", PolyValue::Certain(Value::Int(1)));
  store.SetWriteLsn("k", 7);
  EXPECT_EQ(store.Read("k", &lsn).value().certain_value(), Value::Int(1));
  EXPECT_EQ(lsn, 7u);
  // A plain write (initial load) carries no record.
  store.Write("k", PolyValue::Certain(Value::Int(2)));
  ASSERT_TRUE(store.Read("k", &lsn).ok());
  EXPECT_EQ(lsn, 0u);
  store.SetWriteLsn("absent", 3);  // no item: nothing to stamp
  EXPECT_FALSE(store.Contains("absent"));
}

using Mode = ItemStore::LockMode;
using Attempt = ItemStore::LockAttempt;
const TxnId kT3(3);

TEST(ItemStoreLockModeTest, ReadersShare) {
  ItemStore store;
  EXPECT_TRUE(store.Lock("k", kT1, Mode::kShared).ok());
  EXPECT_TRUE(store.Lock("k", kT2, Mode::kShared).ok());
  EXPECT_EQ(store.locked_count(), 1u);  // one item, two readers
  EXPECT_EQ(store.LockHolder("k"), kT1);  // the eldest reader
  store.UnlockAll(kT1);
  EXPECT_EQ(store.LockHolder("k"), kT2);
  store.UnlockAll(kT2);
  EXPECT_EQ(store.locked_count(), 0u);
  EXPECT_FALSE(store.LockHolder("k").has_value());
}

TEST(ItemStoreLockModeTest, WriterExcludesReaders) {
  ItemStore store;
  ASSERT_TRUE(store.Lock("k", kT1, Mode::kExclusive).ok());
  EXPECT_EQ(store.Lock("k", kT2, Mode::kShared).code(), StatusCode::kAborted);
  store.UnlockAll(kT1);
  EXPECT_TRUE(store.Lock("k", kT2, Mode::kShared).ok());
}

TEST(ItemStoreLockModeTest, ReadersExcludeWriter) {
  ItemStore store;
  ASSERT_TRUE(store.Lock("k", kT1, Mode::kShared).ok());
  ASSERT_TRUE(store.Lock("k", kT2, Mode::kShared).ok());
  EXPECT_EQ(store.Lock("k", kT3, Mode::kExclusive).code(),
            StatusCode::kAborted);
  store.UnlockAll(kT1);
  EXPECT_EQ(store.Lock("k", kT3, Mode::kExclusive).code(),
            StatusCode::kAborted);
  store.UnlockAll(kT2);
  EXPECT_TRUE(store.Lock("k", kT3, Mode::kExclusive).ok());
  EXPECT_EQ(store.LockHolder("k"), kT3);
}

TEST(ItemStoreLockModeTest, SoleReaderUpgrades) {
  ItemStore store;
  ASSERT_TRUE(store.Lock("k", kT1, Mode::kShared).ok());
  EXPECT_TRUE(store.Lock("k", kT1, Mode::kExclusive).ok());
  // Now exclusive: a second reader is turned away.
  EXPECT_EQ(store.Lock("k", kT2, Mode::kShared).code(), StatusCode::kAborted);
  store.UnlockAll(kT1);
  EXPECT_EQ(store.locked_count(), 0u);
}

TEST(ItemStoreLockModeTest, UpgradeRefusedBesideOtherReaders) {
  ItemStore store;
  ASSERT_TRUE(store.Lock("k", kT1, Mode::kShared).ok());
  ASSERT_TRUE(store.Lock("k", kT2, Mode::kShared).ok());
  EXPECT_EQ(store.Lock("k", kT1, Mode::kExclusive).code(),
            StatusCode::kAborted);
  EXPECT_EQ(store.LockOrQueue("k", kT1, Mode::kExclusive), Attempt::kRefused);
  // The refusal left both shared holds in place.
  store.UnlockAll(kT2);
  EXPECT_TRUE(store.Lock("k", kT1, Mode::kExclusive).ok());
}

TEST(ItemStoreLockModeTest, ReentrantInEitherMode) {
  ItemStore store;
  ASSERT_TRUE(store.Lock("s", kT1, Mode::kShared).ok());
  EXPECT_TRUE(store.Lock("s", kT1, Mode::kShared).ok());
  ASSERT_TRUE(store.Lock("x", kT1, Mode::kExclusive).ok());
  EXPECT_TRUE(store.Lock("x", kT1, Mode::kShared).ok());  // X covers S
  EXPECT_TRUE(store.Lock("x", kT1, Mode::kExclusive).ok());
  EXPECT_EQ(store.LockOrQueue("x", kT1, Mode::kShared), Attempt::kGranted);
  EXPECT_EQ(store.locked_count(), 2u);
  // Re-entry recorded no second hold: one UnlockAll frees both items.
  EXPECT_TRUE(store.UnlockAll(kT1).empty());
  EXPECT_EQ(store.locked_count(), 0u);
}

TEST(ItemStoreLockModeTest, UnlockAllReleasesSharedHoldsOnly) {
  ItemStore store;
  ASSERT_TRUE(store.Lock("a", kT1, Mode::kShared).ok());
  ASSERT_TRUE(store.Lock("a", kT2, Mode::kShared).ok());
  ASSERT_TRUE(store.Lock("b", kT1, Mode::kShared).ok());
  store.UnlockAll(kT1);
  EXPECT_EQ(store.LockHolder("a"), kT2);
  EXPECT_FALSE(store.LockHolder("b").has_value());
  EXPECT_EQ(store.locked_count(), 1u);
}

TEST(ItemStoreLockModeTest, WaitDieComparesWithEveryConflictingHolder) {
  ItemStore store;
  const TxnId t5(5), t7(7), t6(6), t4(4);
  ASSERT_EQ(store.LockOrQueue("k", t5, Mode::kShared), Attempt::kGranted);
  ASSERT_EQ(store.LockOrQueue("k", t7, Mode::kShared), Attempt::kGranted);
  // A writer must be older than both readers to wait.
  EXPECT_EQ(store.LockOrQueue("k", t6, Mode::kExclusive), Attempt::kRefused);
  EXPECT_EQ(store.LockOrQueue("k", t4, Mode::kExclusive), Attempt::kQueued);
  // A reader never conflicts with readers, whatever its age.
  EXPECT_EQ(store.LockOrQueue("k", TxnId(9), Mode::kShared),
            Attempt::kGranted);
}

TEST(ItemStoreLockModeTest, ReleaseGrantsCompatibleWaitersInQueueOrder) {
  ItemStore store;
  ASSERT_EQ(store.LockOrQueue("k", TxnId(10), Mode::kExclusive),
            Attempt::kGranted);
  // Queue, eldest first: 2 (S), 3 (S), 4 (X), 5 (S).
  ASSERT_EQ(store.LockOrQueue("k", TxnId(4), Mode::kExclusive),
            Attempt::kQueued);
  ASSERT_EQ(store.LockOrQueue("k", TxnId(2), Mode::kShared), Attempt::kQueued);
  ASSERT_EQ(store.LockOrQueue("k", TxnId(5), Mode::kShared), Attempt::kQueued);
  ASSERT_EQ(store.LockOrQueue("k", TxnId(3), Mode::kShared), Attempt::kQueued);

  // The writer leaves: both leading readers are granted together; the
  // queued writer stops the sweep, and the reader behind it waits too.
  std::vector<ItemStore::Grant> grants = store.UnlockAll(TxnId(10));
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].txn, TxnId(2));
  EXPECT_EQ(grants[1].txn, TxnId(3));
  EXPECT_EQ(store.LockHolder("k"), TxnId(2));

  // One reader left: the writer still waits for the other.
  EXPECT_TRUE(store.UnlockAll(TxnId(2)).empty());
  grants = store.UnlockAll(TxnId(3));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].txn, TxnId(4));
  EXPECT_EQ(store.Lock("k", TxnId(1), Mode::kShared).code(),
            StatusCode::kAborted);

  grants = store.UnlockAll(TxnId(4));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].txn, TxnId(5));
  store.UnlockAll(TxnId(5));
  EXPECT_EQ(store.locked_count(), 0u);
}

}  // namespace
}  // namespace polyvalue
