// Per-site item storage with two-phase locking.
//
// A site's database: a map from item keys to polyvalues (a certain item
// is simply the degenerate single-pair polyvalue). Items are created on
// first write; reads of unknown keys fail with NOT_FOUND unless the store
// was configured with a default value factory.
//
// Locking implements strict two-phase locking at item granularity —
// enough to serialise transactions *within* a site; cross-site atomicity
// is the commit protocol's job. Locks come in two modes: shared (S) for
// items a transaction only reads, exclusive (X) for items it writes. S
// is compatible with S only; a reader may upgrade S to X only while it
// is the sole holder. Crucially, installing a polyvalue
// RELEASES the lock: that is the paper's entire point. A blocked 2PC
// participant would hold the lock through the in-doubt window; a
// polyvalue participant records the uncertainty in the data itself and
// lets the next transaction in.
//
// Concurrency: the DATA plane (items) is sharded — each bucket owns its
// own mutex, so reads and installs on different items proceed in
// parallel under the threaded runtimes. The LOCK plane (2PL lock table +
// wait-die queues) stays under one dedicated mutex: its critical
// sections are a few map operations, and per-transaction bookkeeping
// (held/waiting sets) spans shards anyway. Cross-shard iteration
// (ForEach, UncertainKeys) gathers then sorts, so observable order stays
// deterministic regardless of shard count.
#ifndef SRC_STORE_ITEM_STORE_H_
#define SRC_STORE_ITEM_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/poly/polyvalue.h"

namespace polyvalue {

class ItemStore {
 public:
  static constexpr size_t kDefaultShards = 16;

  // Optional factory invoked for reads of missing keys (examples use it to
  // model "accounts start at 0"). Null disables auto-creation.
  using DefaultFactory = std::function<PolyValue(const ItemKey&)>;

  explicit ItemStore(DefaultFactory default_factory = nullptr,
                     size_t shard_count = kDefaultShards);

  // --- data plane (sharded) ---

  // Reads the current (poly)value of an item. When `write_lsn` is
  // non-null it receives the WAL sequence number stamped on the item by
  // SetWriteLsn (0 for an item no logged record wrote).
  Result<PolyValue> Read(const ItemKey& key,
                         uint64_t* write_lsn = nullptr) const;

  // Unconditional write (used by initial loading and by the engine once a
  // transaction's fate is decided). Resets the item's write LSN to 0.
  void Write(const ItemKey& key, PolyValue value);

  // Records that the WAL record with sequence number `lsn` is the last
  // one logging the item's current value. A reader that exposes the
  // value must not outrun that record.
  void SetWriteLsn(const ItemKey& key, uint64_t lsn);

  bool Contains(const ItemKey& key) const;
  size_t size() const;
  size_t shard_count() const { return shards_.size(); }

  // Number of items currently holding an uncertain polyvalue. This is the
  // P(t) the paper's §4 analysis tracks.
  size_t UncertainCount() const;

  // Keys of uncertain items (sorted, for deterministic iteration).
  std::vector<ItemKey> UncertainKeys() const;

  // Applies `fn` to every (key, value) pair in sorted key order. Pairs
  // are copied out shard by shard first, so `fn` runs without any store
  // lock held and the iteration order is shard-count independent.
  void ForEach(
      const std::function<void(const ItemKey&, const PolyValue&)>& fn) const;

  // --- lock plane (strict 2PL, shared and exclusive item locks) ---

  enum class LockMode : uint8_t { kShared, kExclusive };

  // Acquires `key` for `txn` in `mode`. Fails with ABORTED on conflict
  // (the engine uses immediate-abort rather than deadlock-prone
  // waiting). Re-entrant for the same transaction: X covers S, and S
  // upgrades to X when `txn` is the only reader.
  Status Lock(const ItemKey& key, TxnId txn,
              LockMode mode = LockMode::kExclusive);

  // Wait-die variant: a requester waits only if it is OLDER (smaller txn
  // id — ids grow over time) than every holder its mode conflicts with;
  // otherwise it "dies" (kRefused). So a wait points from older to
  // younger when it is queued. Holders granted later (the next waiters
  // of a released item, or readers joining readers) may be older than a
  // queued waiter; the engine's compute-phase watchdog bounds such
  // waits. An upgrade that cannot be granted at once is refused.
  enum class LockAttempt { kGranted, kQueued, kRefused };
  LockAttempt LockOrQueue(const ItemKey& key, TxnId txn,
                          LockMode mode = LockMode::kExclusive);

  // Releases every lock held by `txn`. Each freed item is granted to its
  // waiters in queue order (eldest first) for as long as their modes are
  // compatible with the holders. Returns the (txn, key) grants made, so
  // the engine can resume parked work. Also removes `txn` from any wait
  // queues.
  struct Grant {
    TxnId txn;
    ItemKey key;
  };
  std::vector<Grant> UnlockAll(TxnId txn);

  // Abandons `txn`'s queued (not yet granted) waits without touching the
  // locks it already holds.
  void CancelWaits(TxnId txn);

  // A transaction holding `key`, if any: the writer under X, the eldest
  // reader under S.
  std::optional<TxnId> LockHolder(const ItemKey& key) const;
  // Number of items locked in either mode.
  size_t locked_count() const;

 private:
  struct Item {
    PolyValue value;
    uint64_t write_lsn = 0;
  };
  struct Shard {
    mutable Mutex mu POLYV_MUTEX_RANK(kStoreShard);
    std::map<ItemKey, Item> items GUARDED_BY(mu);
  };
  // One item's lock: its holders (one writer, or any number of readers,
  // kept sorted eldest first) and their mode.
  struct ItemLock {
    LockMode mode = LockMode::kShared;
    std::vector<TxnId> holders;
  };
  struct Waiter {
    TxnId txn;
    LockMode mode;
  };

  // True when `txn` may join `lock`'s holders in `mode` right now.
  static bool Compatible(const ItemLock& lock, LockMode mode) {
    return lock.holders.empty() ||
           (lock.mode == LockMode::kShared && mode == LockMode::kShared);
  }
  // Grants `key` to `txn` in `mode` (the caller checked compatibility).
  void GrantLocked(const ItemKey& key, ItemLock* lock, TxnId txn,
                   LockMode mode) REQUIRES(lock_mu_);
  // Grants `key` to `txn` in `mode` if it can be granted right now,
  // counting re-entry by a holder. False on a conflict.
  bool TryGrantLocked(const ItemKey& key, ItemLock* lock, TxnId txn,
                      LockMode mode) REQUIRES(lock_mu_);
  void DropWaitsLocked(TxnId txn) REQUIRES(lock_mu_);

  Shard& ShardFor(const ItemKey& key) const {
    return shards_[std::hash<ItemKey>()(key) % shards_.size()];
  }

  // Shards are heap-allocated once and never moved (mutexes pin them).
  mutable std::vector<Shard> shards_;
  DefaultFactory default_factory_;

  // Lock plane: one mutex, disjoint from every shard mutex. Never held
  // together with a shard mutex; it still gets a rank below the shards
  // so that if the planes ever do nest, lockdep fixes the direction.
  mutable Mutex lock_mu_ POLYV_MUTEX_RANK(kStoreLockPlane);
  std::unordered_map<ItemKey, ItemLock> locks_ GUARDED_BY(lock_mu_);
  std::unordered_map<TxnId, std::vector<ItemKey>> held_ GUARDED_BY(lock_mu_);
  // Per-item wait queues (wait-die), kept sorted eldest-first.
  std::unordered_map<ItemKey, std::vector<Waiter>> waiters_
      GUARDED_BY(lock_mu_);
};

}  // namespace polyvalue

#endif  // SRC_STORE_ITEM_STORE_H_
