#include "tracing.hpp"

#include <algorithm>
#include <limits>

#include "runtime/sharding.hpp"

namespace perfbench {

using qcnt::runtime::NodeId;
using qcnt::runtime::RtMessage;

TracingTransport::TracingTransport(
    std::unique_ptr<qcnt::net::Transport> inner, SpanLog& log,
    std::size_t replicas, std::size_t shards, std::size_t capture)
    : inner_(std::move(inner)),
      log_(log),
      replicas_(replicas),
      shards_(shards),
      capture_(capture) {
  captured_.reserve(capture);
}

bool TracingTransport::Send(NodeId from, NodeId to, RtMessage msg) {
  if (!log_.Recording()) return inner_->Send(from, to, std::move(msg));
  SpanLog::Buffer* buf = log_.Reserve();
  if (buf == nullptr) return inner_->Send(from, to, std::move(msg));

  if (capture_claimed_.load(std::memory_order_relaxed) < capture_ &&
      capture_claimed_.fetch_add(1, std::memory_order_relaxed) < capture_) {
    std::lock_guard<std::mutex> lock(capture_mu_);
    captured_.push_back(qcnt::net::WireFrame{from, to, msg});
  }

  // Op refs are taken before the message is moved into the transport. The
  // shard tag names the worker shard the key maps to on a receiving
  // replica (0 for messages to clients).
  Span s;
  s.kind = SpanKind::kSend;
  s.from = from;
  s.to = to;
  s.msg_kind = static_cast<std::uint8_t>(msg.kind);
  s.ref_begin = static_cast<std::uint32_t>(buf->refs.size());
  const bool to_replica = to < replicas_;
  auto shard_of = [&](const std::string& key) -> std::size_t {
    return to_replica ? qcnt::runtime::ShardForKey(key, shards_) : 0;
  };
  if (msg.batch.empty()) {
    buf->refs.push_back(PackRef(msg.op, shard_of(msg.key)));
  } else {
    for (const auto& entry : msg.batch) {
      buf->refs.push_back(PackRef(entry.op, shard_of(entry.key)));
    }
  }
  s.ref_count = static_cast<std::uint16_t>(
      std::min<std::size_t>(buf->refs.size() - s.ref_begin,
                            std::numeric_limits<std::uint16_t>::max()));

  s.start_ns = NowNs();
  const bool ok = inner_->Send(from, to, std::move(msg));
  s.end_ns = NowNs();
  buf->spans.push_back(s);
  return ok;
}

void TracingBackend::Record(SpanKind kind, std::int64_t start,
                            std::size_t records) {
  const std::int64_t end = NowNs();
  SpanLog::Buffer* buf = log_.Reserve();
  if (buf == nullptr) return;
  Span s;
  s.kind = kind;
  s.start_ns = start;
  s.end_ns = end;
  s.from = replica_;
  s.to = shard_;
  s.ref_count = static_cast<std::uint16_t>(
      std::min<std::size_t>(records, std::numeric_limits<std::uint16_t>::max()));
  buf->spans.push_back(s);
}

void TracingBackend::ApplyWrite(const std::string& key, std::uint64_t version,
                                std::int64_t value) {
  if (!log_.Recording()) return inner_->ApplyWrite(key, version, value);
  const std::int64_t start = NowNs();
  inner_->ApplyWrite(key, version, value);
  Record(SpanKind::kStorageAppend, start, 1);
}

void TracingBackend::ApplyWriteBatch(
    const std::vector<qcnt::storage::WalRecord>& records) {
  if (!log_.Recording()) return inner_->ApplyWriteBatch(records);
  const std::int64_t start = NowNs();
  inner_->ApplyWriteBatch(records);
  Record(SpanKind::kStorageAppend, start, records.size());
}

void TracingBackend::MaybeCompact(qcnt::storage::Image& image) {
  // The memory backend's MaybeCompact is a no-op called after every apply;
  // only a durable backend does work here worth a span.
  if (!log_.Recording() || !inner_->Durable()) {
    return inner_->MaybeCompact(image);
  }
  const std::int64_t start = NowNs();
  inner_->MaybeCompact(image);
  Record(SpanKind::kStorageCompact, start, 0);
}

}  // namespace perfbench
