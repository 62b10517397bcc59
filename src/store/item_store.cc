#include "src/store/item_store.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"

namespace polyvalue {

ItemStore::ItemStore(DefaultFactory default_factory, size_t shard_count)
    : shards_(shard_count == 0 ? 1 : shard_count),
      default_factory_(std::move(default_factory)) {}

Result<PolyValue> ItemStore::Read(const ItemKey& key,
                                  uint64_t* write_lsn) const {
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(&shard.mu);
    auto it = shard.items.find(key);
    if (it != shard.items.end()) {
      if (write_lsn != nullptr) {
        *write_lsn = it->second.write_lsn;
      }
      return it->second.value;
    }
  }
  if (write_lsn != nullptr) {
    *write_lsn = 0;
  }
  if (default_factory_ != nullptr) {
    return default_factory_(key);
  }
  return NotFoundError(StrCat("item '", key, "' does not exist"));
}

void ItemStore::Write(const ItemKey& key, PolyValue value) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  shard.items.insert_or_assign(key, Item{std::move(value), 0});
}

void ItemStore::SetWriteLsn(const ItemKey& key, uint64_t lsn) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.items.find(key);
  if (it != shard.items.end()) {
    it->second.write_lsn = lsn;
  }
}

bool ItemStore::Contains(const ItemKey& key) const {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  return shard.items.count(key) > 0;
}

size_t ItemStore::size() const {
  size_t n = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    n += shard.items.size();
  }
  return n;
}

size_t ItemStore::UncertainCount() const {
  size_t n = 0;
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (const auto& [key, item] : shard.items) {
      if (!item.value.is_certain()) {
        ++n;
      }
    }
  }
  return n;
}

std::vector<ItemKey> ItemStore::UncertainKeys() const {
  std::vector<ItemKey> keys;
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (const auto& [key, item] : shard.items) {
      if (!item.value.is_certain()) {
        keys.push_back(key);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void ItemStore::ForEach(
    const std::function<void(const ItemKey&, const PolyValue&)>& fn) const {
  std::vector<std::pair<ItemKey, PolyValue>> snapshot;
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (const auto& [key, item] : shard.items) {
      snapshot.emplace_back(key, item.value);
    }
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, value] : snapshot) {
    fn(key, value);
  }
}

void ItemStore::GrantLocked(const ItemKey& key, ItemLock* lock, TxnId txn,
                            LockMode mode) {
  lock->mode = mode;
  lock->holders.insert(
      std::upper_bound(lock->holders.begin(), lock->holders.end(), txn), txn);
  held_[txn].push_back(key);
}

bool ItemStore::TryGrantLocked(const ItemKey& key, ItemLock* lock, TxnId txn,
                               LockMode mode) {
  if (std::binary_search(lock->holders.begin(), lock->holders.end(), txn)) {
    // Re-entry: X covers S; S upgrades to X only for the sole reader.
    if (lock->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return true;
    }
    if (lock->holders.size() == 1) {
      lock->mode = LockMode::kExclusive;
      return true;
    }
    return false;
  }
  if (!Compatible(*lock, mode)) {
    return false;
  }
  GrantLocked(key, lock, txn, mode);
  return true;
}

Status ItemStore::Lock(const ItemKey& key, TxnId txn, LockMode mode) {
  MutexLock lock(&lock_mu_);
  ItemLock& item = locks_[key];
  if (TryGrantLocked(key, &item, txn, mode)) {
    return OkStatus();
  }
  return AbortedError(
      StrCat("item '", key, "' locked by ", item.holders.front()));
}

ItemStore::LockAttempt ItemStore::LockOrQueue(const ItemKey& key, TxnId txn,
                                              LockMode mode) {
  MutexLock lock(&lock_mu_);
  ItemLock& item = locks_[key];
  if (TryGrantLocked(key, &item, txn, mode)) {
    return LockAttempt::kGranted;
  }
  // Wait-die: only a transaction older than every conflicting holder may
  // wait. Every holder conflicts (X excludes all), and holders are
  // sorted eldest first. A refused upgrade is itself a holder, so it
  // never passes this test.
  if (!(txn < item.holders.front())) {
    return LockAttempt::kRefused;
  }
  std::vector<Waiter>& queue = waiters_[key];
  const auto pos = std::find_if(queue.begin(), queue.end(),
                                [&](const Waiter& w) { return w.txn == txn; });
  if (pos == queue.end()) {
    queue.insert(std::upper_bound(queue.begin(), queue.end(), txn,
                                  [](TxnId t, const Waiter& w) {
                                    return t < w.txn;
                                  }),
                 Waiter{txn, mode});
  }
  return LockAttempt::kQueued;
}

std::vector<ItemStore::Grant> ItemStore::UnlockAll(TxnId txn) {
  MutexLock lock(&lock_mu_);
  std::vector<Grant> grants;
  auto it = held_.find(txn);
  if (it != held_.end()) {
    for (const ItemKey& key : it->second) {
      auto lock_it = locks_.find(key);
      if (lock_it == locks_.end()) {
        continue;
      }
      ItemLock& item = lock_it->second;
      auto holder = std::lower_bound(item.holders.begin(),
                                     item.holders.end(), txn);
      if (holder == item.holders.end() || *holder != txn) {
        continue;
      }
      item.holders.erase(holder);
      // Grant the queue front for as long as its modes stay compatible.
      auto queue_it = waiters_.find(key);
      if (queue_it != waiters_.end()) {
        std::vector<Waiter>& queue = queue_it->second;
        size_t granted = 0;
        while (granted < queue.size() &&
               Compatible(item, queue[granted].mode)) {
          GrantLocked(key, &item, queue[granted].txn, queue[granted].mode);
          grants.push_back({queue[granted].txn, key});
          ++granted;
        }
        queue.erase(queue.begin(), queue.begin() + granted);
        if (queue.empty()) {
          waiters_.erase(queue_it);
        }
      }
      if (item.holders.empty()) {
        locks_.erase(lock_it);
      }
    }
    held_.erase(txn);
  }
  // Drop any waits the departing transaction still had queued.
  DropWaitsLocked(txn);
  return grants;
}

void ItemStore::DropWaitsLocked(TxnId txn) {
  for (auto queue_it = waiters_.begin(); queue_it != waiters_.end();) {
    auto& queue = queue_it->second;
    queue.erase(std::remove_if(queue.begin(), queue.end(),
                               [&](const Waiter& w) { return w.txn == txn; }),
                queue.end());
    if (queue.empty()) {
      queue_it = waiters_.erase(queue_it);
    } else {
      ++queue_it;
    }
  }
}

void ItemStore::CancelWaits(TxnId txn) {
  MutexLock lock(&lock_mu_);
  DropWaitsLocked(txn);
}

std::optional<TxnId> ItemStore::LockHolder(const ItemKey& key) const {
  MutexLock lock(&lock_mu_);
  auto it = locks_.find(key);
  if (it == locks_.end()) {
    return std::nullopt;
  }
  return it->second.holders.front();
}

size_t ItemStore::locked_count() const {
  MutexLock lock(&lock_mu_);
  return locks_.size();
}

}  // namespace polyvalue
