// Per-site write-ahead log.
//
// A site logs every durable state change — item writes (including
// polyvalue installs and reductions), learned transaction outcomes, and
// outcome-table bookkeeping — before applying it. After a crash,
// ReplayFile() reconstructs the records and recovery.h rebuilds the
// ItemStore and OutcomeTable, so a site that failed during the in-doubt
// window wakes up still knowing which polyvalues it owes reductions for.
//
// On-disk format, per frame:
//     [u32 body_len][u32 crc32(body)][body]
// A body is either a single encoded record or — under group commit — a
// batch container (tag kWalBatchTag) holding several records written and
// fsynced as one unit. A torn tail (truncated or CRC-failing final
// frame, or a CRC failure after which no intact frame chain follows) is
// detected and ignored — those writes were never acknowledged.
// Corruption *before* an intact suffix is reported as DATA_LOSS.
//
// Sync policies:
//   kFlushOnly   — fflush per append, no fsync (fast, default; durability
//                  against process death, not power loss).
//   kEveryAppend — fflush + fsync per append (the honest per-record
//                  durability story; slow).
//   kGroupCommit — appends only buffer in memory; FlushTo(lsn) coalesces
//                  every buffered record into ONE batch frame + fsync.
//
// Sequence numbers: Append returns the record's log sequence number
// (LSN): 1 for the first record this Wal accepts, then consecutive.
// FlushTo(lsn) makes every record up to `lsn` durable; the durable log is
// always a prefix of the appended one. The engine holds each message or
// client callback until the records it depends on are durable — the
// records its own locked section appended and the records that wrote the
// item values it read — so an acknowledged write is always durable, a
// record nothing depends on yet stays buffered, and concurrent
// transactions share one physical write+fsync.
#ifndef SRC_STORE_WAL_H_
#define SRC_STORE_WAL_H_

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/poly/polyvalue.h"

namespace polyvalue {

enum class WalRecordType : uint8_t {
  kWrite = 1,       // key + polyvalue
  kOutcome = 2,     // txn + committed flag
  kTrackItem = 3,   // txn + key  (outcome table: local dependent item)
  kTrackSite = 4,   // txn + site (outcome table: downstream site)
  kUntrackItem = 5, // txn + key  (dependency overwritten)
  kForgetTxn = 6,   // txn        (outcome table entry deleted)
  kPrepared = 7,    // txn + coordinator site + pending writes (READY vote)
  kPreparedResolved = 8,  // txn (participation finished / policy applied)
};

// First body byte of a group-commit batch frame. Outside the
// WalRecordType range, so a batch container can never be confused with a
// single record (and old readers fail loudly instead of misparsing).
inline constexpr uint8_t kWalBatchTag = 0xB7;

struct WalRecord {
  WalRecordType type;
  ItemKey key;
  PolyValue value;
  TxnId txn;
  bool committed = false;
  SiteId site;
  std::map<ItemKey, PolyValue> writes;  // kPrepared only

  static WalRecord Write(ItemKey key, PolyValue value);
  static WalRecord Outcome(TxnId txn, bool committed);
  static WalRecord TrackItem(TxnId txn, ItemKey key);
  static WalRecord TrackSite(TxnId txn, SiteId site);
  static WalRecord UntrackItem(TxnId txn, ItemKey key);
  static WalRecord ForgetTxn(TxnId txn);
  static WalRecord Prepared(TxnId txn, SiteId coordinator,
                            std::map<ItemKey, PolyValue> writes);
  static WalRecord PreparedResolved(TxnId txn);

  std::string Encode() const;
  static Result<WalRecord> Decode(const std::string& body);
};

class Wal {
 public:
  enum class SyncPolicy : uint8_t {
    kFlushOnly,    // write + fflush per append (today's default)
    kEveryAppend,  // write + fflush + fsync per append
    kGroupCommit,  // buffer appends; Flush() writes one batch + fsync
  };

  struct Options {
    SyncPolicy sync_policy = SyncPolicy::kFlushOnly;
    // Group commit only: how long a flushing thread lingers (wall clock)
    // with the buffer open so concurrent appenders can join the batch.
    // 0 = flush immediately (still coalesces whatever is already
    // buffered; deterministic under the simulator).
    double group_window_seconds = 0.0;
    // Group commit only: buffered records that trigger an inline flush
    // without waiting for the Flush() barrier.
    size_t max_batch = 128;
  };

  // Opens (creating or appending to) the log at `path`.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           Options options);
  // Back-compat convenience: `sync_every_append` maps to kEveryAppend.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           bool sync_every_append = false);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Appends `record` and returns its LSN.
  Result<uint64_t> Append(const WalRecord& record);

  // Group-commit barrier: blocks until every record with an LSN up to
  // `lsn` (clamped to the last one appended) is durable. A flush this
  // call leads writes everything buffered at that moment as one batch,
  // since the single fsync costs the same; a call whose records are
  // already durable returns at once and leaves later records buffered.
  // No-op under the per-append policies, whose appends are already as
  // durable as they will get.
  Status FlushTo(uint64_t lsn);

  // FlushTo(every record appended so far).
  Status Flush();

  // Strong barrier: Flush() plus an unconditional fsync.
  Status Sync();

  // Truncates the log to empty (after a successful snapshot has captured
  // everything the log recorded). Discards any unflushed buffered
  // records — the snapshot preceding a Reset captures live state, which
  // supersedes them.
  Status Reset();

  const std::string& path() const { return path_; }
  uint64_t records_appended() const;

  // Group-commit accounting: physical batch frames written and records
  // they carried (counts singles written by per-append policies too, as
  // batches of one).
  uint64_t batches_flushed() const;
  uint64_t records_flushed() const;

  // Reads every intact record from the file. A torn final frame is
  // silently dropped; earlier corruption returns DATA_LOSS.
  static Result<std::vector<WalRecord>> ReplayFile(const std::string& path);

 private:
  Wal(std::string path, std::FILE* file, Options options)
      : path_(std::move(path)), options_(options), file_(file) {}

  // Writes `bodies` as one frame (batch container for >1) to `file` and
  // syncs. Caller must NOT hold mu_ — file writes happen outside the
  // lock; `file` is the pointer read under mu_ before unlocking, and the
  // flushing_ token keeps Reset() from replacing it mid-write.
  static Status WriteAndSync(const std::vector<std::string>& bodies,
                             std::FILE* file);

  const std::string path_;
  const Options options_;
  mutable Mutex mu_ POLYV_MUTEX_RANK(kWal);
  CondVar cv_;
  // Replaced by Reset() under mu_; flushes read it under mu_ and write
  // outside the lock, fenced by flushing_ (Reset waits for !flushing_).
  std::FILE* file_ GUARDED_BY(mu_);
  // Group commit: encoded record bodies awaiting the next flush.
  std::vector<std::string> pending_ GUARDED_BY(mu_);
  bool flushing_ GUARDED_BY(mu_) = false;
  uint64_t appended_seq_ GUARDED_BY(mu_) = 0;  // LSN of the last Append
  uint64_t durable_seq_ GUARDED_BY(mu_) = 0;   // covered by a flush
  uint64_t batches_flushed_ GUARDED_BY(mu_) = 0;
  uint64_t records_flushed_ GUARDED_BY(mu_) = 0;
};

}  // namespace polyvalue

#endif  // SRC_STORE_WAL_H_
