#include "src/store/wal.h"

#include <unistd.h>

#include <algorithm>
#include <limits>

#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/net/codec.h"
#include "src/net/wire.h"

namespace polyvalue {

WalRecord WalRecord::Write(ItemKey key, PolyValue value) {
  WalRecord r;
  r.type = WalRecordType::kWrite;
  r.key = std::move(key);
  r.value = std::move(value);
  return r;
}

WalRecord WalRecord::Outcome(TxnId txn, bool committed) {
  WalRecord r;
  r.type = WalRecordType::kOutcome;
  r.txn = txn;
  r.committed = committed;
  return r;
}

WalRecord WalRecord::TrackItem(TxnId txn, ItemKey key) {
  WalRecord r;
  r.type = WalRecordType::kTrackItem;
  r.txn = txn;
  r.key = std::move(key);
  return r;
}

WalRecord WalRecord::TrackSite(TxnId txn, SiteId site) {
  WalRecord r;
  r.type = WalRecordType::kTrackSite;
  r.txn = txn;
  r.site = site;
  return r;
}

WalRecord WalRecord::UntrackItem(TxnId txn, ItemKey key) {
  WalRecord r;
  r.type = WalRecordType::kUntrackItem;
  r.txn = txn;
  r.key = std::move(key);
  return r;
}

WalRecord WalRecord::ForgetTxn(TxnId txn) {
  WalRecord r;
  r.type = WalRecordType::kForgetTxn;
  r.txn = txn;
  return r;
}

WalRecord WalRecord::Prepared(TxnId txn, SiteId coordinator,
                              std::map<ItemKey, PolyValue> writes) {
  WalRecord r;
  r.type = WalRecordType::kPrepared;
  r.txn = txn;
  r.site = coordinator;
  r.writes = std::move(writes);
  return r;
}

WalRecord WalRecord::PreparedResolved(TxnId txn) {
  WalRecord r;
  r.type = WalRecordType::kPreparedResolved;
  r.txn = txn;
  return r;
}

std::string WalRecord::Encode() const {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(type));
  switch (type) {
    case WalRecordType::kWrite:
      w.PutString(key);
      EncodePolyValue(value, &w);
      break;
    case WalRecordType::kOutcome:
      w.PutVarint(txn.value());
      w.PutBool(committed);
      break;
    case WalRecordType::kTrackItem:
    case WalRecordType::kUntrackItem:
      w.PutVarint(txn.value());
      w.PutString(key);
      break;
    case WalRecordType::kTrackSite:
      w.PutVarint(txn.value());
      w.PutVarint(site.value());
      break;
    case WalRecordType::kForgetTxn:
    case WalRecordType::kPreparedResolved:
      w.PutVarint(txn.value());
      break;
    case WalRecordType::kPrepared:
      w.PutVarint(txn.value());
      w.PutVarint(site.value());
      w.PutVarint(writes.size());
      for (const auto& [k, v] : writes) {
        w.PutString(k);
        EncodePolyValue(v, &w);
      }
      break;
  }
  return w.Take();
}

Result<WalRecord> WalRecord::Decode(const std::string& body) {
  ByteReader r(body);
  POLYV_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  WalRecord record;
  record.type = static_cast<WalRecordType>(tag);
  switch (record.type) {
    case WalRecordType::kWrite: {
      POLYV_ASSIGN_OR_RETURN(record.key, r.GetString());
      POLYV_ASSIGN_OR_RETURN(record.value, DecodePolyValue(&r));
      break;
    }
    case WalRecordType::kOutcome: {
      POLYV_ASSIGN_OR_RETURN(uint64_t txn, r.GetVarint());
      record.txn = TxnId(txn);
      POLYV_ASSIGN_OR_RETURN(record.committed, r.GetBool());
      break;
    }
    case WalRecordType::kTrackItem:
    case WalRecordType::kUntrackItem: {
      POLYV_ASSIGN_OR_RETURN(uint64_t txn, r.GetVarint());
      record.txn = TxnId(txn);
      POLYV_ASSIGN_OR_RETURN(record.key, r.GetString());
      break;
    }
    case WalRecordType::kTrackSite: {
      POLYV_ASSIGN_OR_RETURN(uint64_t txn, r.GetVarint());
      record.txn = TxnId(txn);
      POLYV_ASSIGN_OR_RETURN(uint64_t site, r.GetVarint());
      record.site = SiteId(site);
      break;
    }
    case WalRecordType::kForgetTxn:
    case WalRecordType::kPreparedResolved: {
      POLYV_ASSIGN_OR_RETURN(uint64_t txn, r.GetVarint());
      record.txn = TxnId(txn);
      break;
    }
    case WalRecordType::kPrepared: {
      POLYV_ASSIGN_OR_RETURN(uint64_t txn, r.GetVarint());
      record.txn = TxnId(txn);
      POLYV_ASSIGN_OR_RETURN(uint64_t site, r.GetVarint());
      record.site = SiteId(site);
      POLYV_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
      if (n > (1u << 20)) {
        return DataLossError("prepared write set too large");
      }
      for (uint64_t i = 0; i < n; ++i) {
        POLYV_ASSIGN_OR_RETURN(std::string k, r.GetString());
        POLYV_ASSIGN_OR_RETURN(PolyValue v, DecodePolyValue(&r));
        record.writes.emplace(std::move(k), std::move(v));
      }
      break;
    }
    default:
      return DataLossError(StrCat("unknown WAL record type ", int(tag)));
  }
  if (!r.AtEnd()) {
    return DataLossError("trailing bytes in WAL record");
  }
  return record;
}

namespace {

// Frames `body` as [len][crc][body] onto `out`.
void FrameBody(const std::string& body, ByteWriter* out) {
  out->PutFixed32(static_cast<uint32_t>(body.size()));
  out->PutFixed32(Crc32(body));
  out->PutRaw(body.data(), body.size());
}

// Batch container body: tag + count + length-prefixed record bodies.
std::string BatchBody(const std::vector<std::string>& bodies) {
  ByteWriter w;
  w.PutU8(kWalBatchTag);
  w.PutVarint(bodies.size());
  for (const std::string& body : bodies) {
    w.PutString(body);
  }
  return w.Take();
}

// Decodes one frame body — single record or batch container — onto
// `records`.
Status AppendDecoded(const std::string& body,
                     std::vector<WalRecord>* records) {
  if (!body.empty() &&
      static_cast<uint8_t>(body[0]) == kWalBatchTag) {
    ByteReader r(body);
    (void)r.GetU8();
    POLYV_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
    if (n > (1u << 20)) {
      return DataLossError("WAL batch record count too large");
    }
    for (uint64_t i = 0; i < n; ++i) {
      POLYV_ASSIGN_OR_RETURN(std::string sub, r.GetString());
      POLYV_ASSIGN_OR_RETURN(WalRecord record, WalRecord::Decode(sub));
      records->push_back(std::move(record));
    }
    if (!r.AtEnd()) {
      return DataLossError("trailing bytes in WAL batch frame");
    }
    return OkStatus();
  }
  POLYV_ASSIGN_OR_RETURN(WalRecord record, WalRecord::Decode(body));
  records->push_back(std::move(record));
  return OkStatus();
}

// True when `data[pos..]` parses as a chain of structurally intact,
// CRC-clean frames reaching EOF. Used to tell mid-file corruption (an
// intact suffix follows: DATA_LOSS) from a torn tail (nothing intact
// follows: the write was never acknowledged, drop it).
bool IntactChainFollows(const std::string& data, size_t pos) {
  if (pos >= data.size()) {
    return false;  // nothing follows: the damaged frame was the tail
  }
  while (pos < data.size()) {
    if (data.size() - pos < 8) {
      return false;
    }
    ByteReader header(data.data() + pos, 8);
    const uint32_t len = header.GetFixed32().value();
    const uint32_t crc = header.GetFixed32().value();
    if (data.size() - pos - 8 < len) {
      return false;
    }
    if (Crc32(std::string(data.data() + pos + 8, len)) != crc) {
      return false;
    }
    pos += 8 + len;
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       Options options) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return UnavailableError(StrCat("cannot open WAL at ", path));
  }
  return std::unique_ptr<Wal>(new Wal(path, file, options));
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       bool sync_every_append) {
  Options options;
  options.sync_policy =
      sync_every_append ? SyncPolicy::kEveryAppend : SyncPolicy::kFlushOnly;
  return Open(path, options);
}

Wal::~Wal() {
  if (options_.sync_policy == SyncPolicy::kGroupCommit) {
    // Best-effort: records appended but never flushed were never
    // acknowledged, but there is no reason to drop them on a clean exit.
    (void)Flush();
  }
  MutexLock lock(&mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

Status Wal::WriteAndSync(const std::vector<std::string>& bodies,
                         std::FILE* file) {
  ByteWriter frame;
  if (bodies.size() == 1) {
    FrameBody(bodies.front(), &frame);
  } else {
    FrameBody(BatchBody(bodies), &frame);
  }
  const std::string& bytes = frame.buffer();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
    return UnavailableError("WAL write failed");
  }
  if (std::fflush(file) != 0) {
    return UnavailableError("WAL flush failed");
  }
  if (fsync(fileno(file)) != 0) {
    return UnavailableError("WAL fsync failed");
  }
  return OkStatus();
}

Result<uint64_t> Wal::Append(const WalRecord& record) {
  std::string body = record.Encode();

  if (options_.sync_policy == SyncPolicy::kGroupCommit) {
    uint64_t lsn = 0;
    bool flush_now = false;
    {
      MutexLock lock(&mu_);
      pending_.push_back(std::move(body));
      lsn = ++appended_seq_;
      flush_now = pending_.size() >= options_.max_batch;
    }
    // A full buffer flushes inline; otherwise the record waits for a
    // FlushTo() barrier that needs it or a concurrent flusher.
    if (flush_now) {
      POLYV_RETURN_IF_ERROR(FlushTo(lsn));
    }
    return lsn;
  }

  ByteWriter frame;
  FrameBody(body, &frame);
  MutexLock lock(&mu_);
  const std::string& bytes = frame.buffer();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return UnavailableError("WAL write failed");
  }
  if (std::fflush(file_) != 0) {
    return UnavailableError("WAL flush failed");
  }
  if (options_.sync_policy == SyncPolicy::kEveryAppend) {
    if (fsync(fileno(file_)) != 0) {
      return UnavailableError("WAL fsync failed");
    }
  }
  durable_seq_ = ++appended_seq_;
  ++batches_flushed_;
  ++records_flushed_;
  return appended_seq_;
}

Status Wal::Flush() { return FlushTo(std::numeric_limits<uint64_t>::max()); }

Status Wal::FlushTo(uint64_t lsn) {
  if (options_.sync_policy != SyncPolicy::kGroupCommit) {
    return OkStatus();  // per-append policies are already durable-as-promised
  }
  mu_.Lock();
  const uint64_t target = std::min(lsn, appended_seq_);
  Status result = OkStatus();
  while (durable_seq_ < target) {
    if (flushing_) {
      // Another thread's flush is in flight and may cover our records
      // (or we re-check and lead the next batch).
      cv_.Wait(&mu_);
      continue;
    }
    flushing_ = true;
    if (options_.group_window_seconds > 0 &&
        pending_.size() < options_.max_batch) {
      // Linger with the batch open so concurrent appenders can join.
      (void)cv_.WaitFor(&mu_, options_.group_window_seconds);
    }
    std::vector<std::string> batch;
    batch.swap(pending_);
    const uint64_t batch_target = appended_seq_;
    // file_ is read under mu_; the write itself happens unlocked, fenced
    // by the flushing_ token (Reset waits for !flushing_ to freopen).
    std::FILE* file = file_;
    mu_.Unlock();
    const Status s = batch.empty() ? OkStatus() : WriteAndSync(batch, file);
    mu_.Lock();
    flushing_ = false;
    // Advance even on failure so waiters do not spin forever; the error
    // is surfaced to the caller (and the records in `batch` are lost,
    // exactly as a failed per-append write would have been).
    durable_seq_ = batch_target;
    if (!batch.empty()) {
      ++batches_flushed_;
      records_flushed_ += batch.size();
    }
    if (!s.ok()) {
      POLYV_ERROR << "WAL group flush failed: " << s;
      result = s;
    }
    cv_.NotifyAll();
  }
  mu_.Unlock();
  return result;
}

Status Wal::Reset() {
  MutexLock lock(&mu_);
  while (flushing_) {
    cv_.Wait(&mu_);
  }
  pending_.clear();
  durable_seq_ = appended_seq_;
  std::FILE* replacement = std::freopen(path_.c_str(), "wb", file_);
  if (replacement == nullptr) {
    return UnavailableError(StrCat("WAL reset failed for ", path_));
  }
  file_ = replacement;
  return OkStatus();
}

Status Wal::Sync() {
  POLYV_RETURN_IF_ERROR(Flush());
  MutexLock lock(&mu_);
  while (flushing_) {
    cv_.Wait(&mu_);
  }
  if (std::fflush(file_) != 0 || fsync(fileno(file_)) != 0) {
    return UnavailableError("WAL sync failed");
  }
  return OkStatus();
}

uint64_t Wal::records_appended() const {
  MutexLock lock(&mu_);
  return appended_seq_;
}

uint64_t Wal::batches_flushed() const {
  MutexLock lock(&mu_);
  return batches_flushed_;
}

uint64_t Wal::records_flushed() const {
  MutexLock lock(&mu_);
  return records_flushed_;
}

Result<std::vector<WalRecord>> Wal::ReplayFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return std::vector<WalRecord>{};  // no log yet: empty history
  }
  std::string data;
  char buf[64 * 1024];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    data.append(buf, n);
  }
  std::fclose(file);

  std::vector<WalRecord> records;
  size_t pos = 0;
  while (pos < data.size()) {
    if (data.size() - pos < 8) {
      break;  // torn header at tail: drop
    }
    ByteReader header(data.data() + pos, 8);
    const uint32_t len = header.GetFixed32().value();
    const uint32_t crc = header.GetFixed32().value();
    if (data.size() - pos - 8 < len) {
      break;  // torn body at tail: drop
    }
    const std::string body(data.data() + pos + 8, len);
    if (Crc32(body) != crc) {
      if (IntactChainFollows(data, pos + 8 + len)) {
        // Clean frames continue past the damage: real mid-file
        // corruption, not a torn write.
        return DataLossError(
            StrCat("WAL corruption at offset ", pos, " in ", path));
      }
      break;  // damaged tail (possibly a torn batch): drop the rest
    }
    const Status decoded = AppendDecoded(body, &records);
    if (!decoded.ok()) {
      return decoded;
    }
    pos += 8 + len;
  }
  return records;
}

}  // namespace polyvalue
