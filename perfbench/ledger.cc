#include "perfbench/ledger.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "src/net/wire.h"
#include "src/txn/messages.h"
#include "src/txn/polytxn.h"

namespace perfbench {
namespace {

using polyvalue::Packet;
using polyvalue::PolyValue;
using polyvalue::SiteId;
using polyvalue::Status;
using polyvalue::TraceEventType;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Every 2PC message starts with version, type and a varint txn id
// (docs/PROTOCOL.md §2).
bool ParseHeader(const std::string& payload, uint8_t* type, uint64_t* txn) {
  polyvalue::ByteReader reader(payload);
  const auto version = reader.GetU8();
  const auto kind = reader.GetU8();
  if (!version.ok() || !kind.ok() ||
      version.value() != polyvalue::kProtocolVersion) {
    return false;
  }
  const auto id = reader.GetVarint();
  if (!id.ok()) {
    return false;
  }
  *type = kind.value();
  *txn = id.value();
  return true;
}

constexpr size_t kStampBytes = sizeof(int64_t);
constexpr uint64_t kPayloadSampleEvery = 32;
constexpr size_t kPayloadSamplesPerLane = 2048;
constexpr size_t kMaxCaptures = 2000;

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank - 1, 0.0, static_cast<double>(samples.size() - 1)));
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : samples) {
    sum += v;
  }
  return sum / static_cast<double>(samples.size());
}

// ---- TracingTransport ----

TracingTransport::TracingTransport(polyvalue::Transport* inner, size_t sites)
    : inner_(inner) {
  for (size_t i = 0; i < sites; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

TracingTransport::Lane& TracingTransport::LaneOf(SiteId site) const {
  return *lanes_[(site.value() - 1) % lanes_.size()];
}

Status TracingTransport::Register(SiteId site, Handler handler) {
  return inner_->Register(site, [this, site, handler = std::move(handler)](
                                    Packet packet) {
    const int64_t arrived = NowNs();
    int64_t sent = arrived;
    const size_t size = packet.payload.size();
    if (size >= kStampBytes) {
      std::memcpy(&sent, packet.payload.data() + size - kStampBytes,
                  kStampBytes);
      packet.payload.resize(size - kStampBytes);
    }
    handler(std::move(packet));
    const int64_t handled = NowNs();
    Lane& lane = LaneOf(site);
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.totals.hop_us.push_back((arrived - sent) / 1e3);
      lane.totals.handler_us.push_back((handled - arrived) / 1e3);
      lane.totals.handler_seconds += (handled - arrived) / 1e9;
    }
    in_flight_.fetch_sub(1);
  });
}

Status TracingTransport::Unregister(SiteId site) {
  return inner_->Unregister(site);
}

void TracingTransport::Stamp(Packet* packet) {
  uint8_t type = 0;
  uint64_t txn = 0;
  const bool parsed = ParseHeader(packet->payload, &type, &txn);
  Lane& lane = LaneOf(packet->from);
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    Totals& t = lane.totals;
    ++t.packets;
    t.bytes += packet->payload.size();
    if (parsed && type < kMsgSlots) {
      ++t.by_type[type];
      ++t.by_txn[txn][type];
    } else {
      ++t.unparsed;
    }
    if (lane.seen++ % kPayloadSampleEvery == 0 &&
        t.payloads.size() < kPayloadSamplesPerLane) {
      t.payloads.push_back(packet->payload);
    }
  }
  // The stamp goes at the end: transports inspect a payload's first
  // bytes (a batch frame has a magic prefix), never its last.
  const int64_t now = NowNs();
  char stamp[kStampBytes];
  std::memcpy(stamp, &now, kStampBytes);
  packet->payload.append(stamp, kStampBytes);
  in_flight_.fetch_add(1);
}

Status TracingTransport::Send(Packet packet) {
  const SiteId from = packet.from;
  Stamp(&packet);
  const int64_t start = NowNs();
  const Status status = inner_->Send(std::move(packet));
  const int64_t end = NowNs();
  if (!status.ok()) {
    in_flight_.fetch_sub(1);
  }
  Lane& lane = LaneOf(from);
  std::lock_guard<std::mutex> lock(lane.mu);
  lane.totals.send_us.push_back((end - start) / 1e3);
  return status;
}

double TracingTransport::handler_seconds() const {
  double seconds = 0;
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mu);
    seconds += lane->totals.handler_seconds;
  }
  return seconds;
}

void TracingTransport::Merge(const Totals& from, Totals* into) {
  const auto append = [](const std::vector<double>& src,
                         std::vector<double>* dst) {
    dst->insert(dst->end(), src.begin(), src.end());
  };
  into->packets += from.packets;
  into->bytes += from.bytes;
  into->unparsed += from.unparsed;
  into->handler_seconds += from.handler_seconds;
  for (size_t i = 0; i < kMsgSlots; ++i) {
    into->by_type[i] += from.by_type[i];
  }
  append(from.send_us, &into->send_us);
  append(from.hop_us, &into->hop_us);
  append(from.handler_us, &into->handler_us);
  into->payloads.insert(into->payloads.end(), from.payloads.begin(),
                        from.payloads.end());
  for (const auto& [txn, counts] : from.by_txn) {
    MsgCounts& merged = into->by_txn[txn];
    for (size_t i = 0; i < kMsgSlots; ++i) {
      merged[i] += counts[i];
    }
  }
}

TracingTransport::Totals TracingTransport::Collect() const {
  Totals all;
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mu);
    Merge(lane->totals, &all);
  }
  return all;
}

// ---- PhaseSink ----

void PhaseSink::Emit(const polyvalue::TraceEvent& event) {
  const uint64_t txn = event.txn.value();
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.events;
  switch (event.type) {
    case TraceEventType::kSubmit:
      submitted_[txn] = event.time;
      break;
    case TraceEventType::kWriteShipped: {
      auto it = submitted_.find(txn);
      if (it != submitted_.end()) {
        totals_.prepare_ms.push_back((event.time - it->second) * 1e3);
        submitted_.erase(it);
      }
      shipped_[txn] = event.time;
      break;
    }
    case TraceEventType::kDecisionCommit:
    case TraceEventType::kDecisionAbort: {
      const bool commit = event.type == TraceEventType::kDecisionCommit;
      totals_.decisions[txn] = commit;
      totals_.aborts += commit ? 0 : 1;
      submitted_.erase(txn);
      auto it = shipped_.find(txn);
      if (it != shipped_.end()) {
        if (commit) {
          totals_.decide_ms.push_back((event.time - it->second) * 1e3);
        }
        shipped_.erase(it);
      }
      break;
    }
    case TraceEventType::kReadOnlyDone:
      submitted_.erase(txn);
      break;
    case TraceEventType::kOutcomeLearned:
      if (!event.flag) {
        ++totals_.abort_learned;
        aborted_at_.insert({event.site.value(), txn});
      }
      break;
    case TraceEventType::kPrepareRecv:
    case TraceEventType::kPrepareRefused:
      totals_.late_prepares += aborted_at_.count({event.site.value(), txn});
      break;
    case TraceEventType::kAlternativeFork:
      ++totals_.forks;
      totals_.alternatives += event.arg;
      break;
    case TraceEventType::kPolyInstall:
      ++totals_.installs;
      installed_[{event.site.value(), event.key}] = event.time;
      break;
    case TraceEventType::kPolyReduce: {
      auto it = installed_.find({event.site.value(), event.key});
      if (it != installed_.end()) {
        totals_.uncertain_ms.push_back((event.time - it->second) * 1e3);
        installed_.erase(it);
      }
      break;
    }
    default:
      break;
  }
}

PhaseSink::Totals PhaseSink::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

void PhaseSink::Merge(const Totals& from, Totals* into) {
  const auto append = [](const std::vector<double>& src,
                         std::vector<double>* dst) {
    dst->insert(dst->end(), src.begin(), src.end());
  };
  append(from.prepare_ms, &into->prepare_ms);
  append(from.decide_ms, &into->decide_ms);
  append(from.uncertain_ms, &into->uncertain_ms);
  into->aborts += from.aborts;
  into->abort_learned += from.abort_learned;
  into->late_prepares += from.late_prepares;
  into->installs += from.installs;
  into->forks += from.forks;
  into->alternatives += from.alternatives;
  into->events += from.events;
}

uint64_t PhaseSink::installs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_.installs;
}

// ---- Sampler ----

Sampler::Sampler(const Workload& w, polyvalue::ThreadCluster* cluster,
                 uint64_t seed)
    : w_(w), cluster_(cluster), rng_(seed) {
  thread_ = std::thread([this] { Loop(); });
}

Sampler::~Sampler() { Stop(); }

void Sampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void Sampler::Loop() {
  constexpr auto kPeriod = std::chrono::milliseconds(1);
  constexpr size_t kCaptureEvery = 10;
  auto next = std::chrono::steady_clock::now();
  for (size_t tick = 0;; ++tick) {
    size_t uncertain = 0;
    for (size_t i = 0; i < cluster_->size(); ++i) {
      uncertain += cluster_->site(i).store().UncertainCount();
    }
    uncertain_.push_back(static_cast<double>(uncertain));
    if (tick % kCaptureEvery == 0 && captures_.size() < kMaxCaptures) {
      CaptureOne();
    }
    next += kPeriod;
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_until(lock, next, [this] { return stop_; })) {
      return;
    }
  }
}

void Sampler::CaptureOne() {
  const size_t site = rng_.NextBelow(cluster_->size());
  const std::vector<ItemKey> uncertain =
      cluster_->site(site).store().UncertainKeys();
  Capture capture;
  if (!uncertain.empty()) {
    const ItemKey& key = uncertain[rng_.NextBelow(uncertain.size())];
    capture.from = IndexOf(key);
  } else {
    capture.from = rng_.NextBelow(w_.items);
  }
  do {
    capture.to = rng_.NextBelow(w_.items);
  } while (capture.to == capture.from);
  const auto from = cluster_->site(SiteOf(w_, capture.from))
                        .Peek(KeyOf(capture.from));
  const auto to =
      cluster_->site(SiteOf(w_, capture.to)).Peek(KeyOf(capture.to));
  if (from.ok() && to.ok()) {
    capture.from_value = from.value();
    capture.to_value = to.value();
    captures_.push_back(std::move(capture));
  }
}

// ---- replays ----

bool ReplayCodec(const std::vector<std::string>& payloads, CodecCost* cost) {
  if (payloads.empty()) {
    return true;
  }
  std::vector<polyvalue::Message> messages;
  messages.reserve(payloads.size());
  for (const std::string& payload : payloads) {
    auto message = polyvalue::Message::Decode(payload);
    if (!message.ok() || message.value().Encode() != payload) {
      return false;
    }
    messages.push_back(std::move(message).value());
  }
  // Each pass times the whole sample; the median pass is reported.
  constexpr int kPasses = 5;
  std::vector<double> decode_ns;
  std::vector<double> encode_ns;
  size_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto start = std::chrono::steady_clock::now();
    for (const std::string& payload : payloads) {
      sink += polyvalue::Message::Decode(payload).ok();
    }
    decode_ns.push_back(SecondsSince(start) * 1e9 / payloads.size());
    start = std::chrono::steady_clock::now();
    for (const polyvalue::Message& message : messages) {
      sink += message.Encode().size();
    }
    encode_ns.push_back(SecondsSince(start) * 1e9 / messages.size());
  }
  cost->decode_ns = Quantile(decode_ns, 0.5);
  cost->encode_ns = Quantile(encode_ns, 0.5);
  return sink > 0;
}

std::vector<double> ReplayExecute(const Workload& w,
                                  const std::vector<Capture>& captures) {
  std::vector<double> micros;
  for (const Capture& capture : captures) {
    RequestInput input;
    input.items = {capture.from, capture.to};
    input.amount = 1;
    const polyvalue::TxnSpec spec = BuildSpec(w, input, nullptr);
    const std::map<ItemKey, PolyValue> values = {
        {KeyOf(capture.from), capture.from_value},
        {KeyOf(capture.to), capture.to_value}};
    const auto start = std::chrono::steady_clock::now();
    const auto result =
        polyvalue::ExecutePolyTransaction(values, values, spec.logic);
    const double us = SecondsSince(start) * 1e6;
    if (result.ok()) {
      micros.push_back(us);
    }
  }
  return micros;
}

bool ReplayReduce(const std::vector<Capture>& captures,
                  const std::unordered_map<uint64_t, bool>& decisions,
                  ReduceCost* cost) {
  for (const Capture& capture : captures) {
    if (capture.from_value.is_certain()) {
      continue;
    }
    ++cost->polyvalues;
    cost->pairs += capture.from_value.size();
    PolyValue value = capture.from_value;
    for (polyvalue::TxnId dep : capture.from_value.Dependencies()) {
      auto decided = decisions.find(dep.value());
      if (decided == decisions.end()) {
        return false;
      }
      const auto start = std::chrono::steady_clock::now();
      value = value.Reduce(dep, decided->second);
      cost->seconds += SecondsSince(start);
      ++cost->calls;
    }
    if (!value.is_certain()) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
