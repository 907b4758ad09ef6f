#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <tuple>
#include <unordered_map>

#include "net/tcp_transport.hpp"
#include "runtime/bus.hpp"
#include "runtime/message.hpp"

namespace perfbench {

using Kind = qcnt::runtime::RtMessage::Kind;

namespace {

/// Phase of a request or response: 0 = read (version discovery), 1 =
/// write (install). -1 for messages that are neither.
int PhaseOf(Kind k) {
  switch (k) {
    case Kind::kReadReq:
    case Kind::kReadResp:
    case Kind::kBatchReadReq:
    case Kind::kBatchReadResp:
      return 0;
    case Kind::kWriteReq:
    case Kind::kWriteAck:
    case Kind::kBatchWriteReq:
    case Kind::kBatchWriteAck:
      return 1;
    default:
      return -1;
  }
}

bool IsRequest(Kind k) {
  return k == Kind::kReadReq || k == Kind::kWriteReq ||
         k == Kind::kBatchReadReq || k == Kind::kBatchWriteReq;
}

/// One end of a replica visit: a request arriving (its Send's end) or the
/// reply leaving (its Send's start).
struct VisitEnd {
  std::uint32_t client;
  std::uint64_t op;
  std::uint8_t phase;
  std::uint32_t replica;
  std::uint8_t is_reply;
  std::int64_t t;
  std::uint32_t shard;

  auto Key() const {
    return std::tie(client, op, phase, replica, is_reply, t);
  }
};

struct OpInterval {
  std::uint32_t client;
  std::uint64_t op;
  Interval iv;
};

double Mean(double sum, std::uint64_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace

SpanAnalysis AnalyzeSpans(const std::vector<Span>& spans,
                          const std::vector<std::uint64_t>& refs,
                          std::size_t replicas, std::uint64_t sample_every) {
  SpanAnalysis out;
  double send_ns = 0, append_ns = 0;
  std::unordered_map<std::uint64_t, std::vector<Interval>> storage;
  std::vector<VisitEnd> ends;
  std::vector<OpInterval> op_spans;

  for (const Span& s : spans) {
    const Interval iv{s.start_ns, s.end_ns};
    if (s.kind != SpanKind::kSend) {
      storage[(std::uint64_t{s.from} << 8) | s.to].push_back(iv);
      if (s.kind == SpanKind::kStorageAppend) {
        append_ns += static_cast<double>(s.end_ns - s.start_ns);
        ++out.appends;
      }
      continue;
    }
    send_ns += static_cast<double>(s.end_ns - s.start_ns);
    ++out.sends;
    const auto kind = static_cast<Kind>(s.msg_kind);
    const int phase = PhaseOf(kind);
    if (phase < 0) continue;
    const bool request = IsRequest(kind);
    // Requests go client -> replica, replies replica -> client.
    const std::uint32_t client = request ? s.from : s.to;
    const std::uint32_t replica = request ? s.to : s.from;
    if (replica >= replicas || client < replicas) continue;
    for (std::uint32_t i = 0; i < s.ref_count; ++i) {
      const std::uint64_t ref = refs[s.ref_begin + i];
      const std::uint64_t op = RefOp(ref);
      if (op % sample_every != 0) continue;
      ends.push_back(VisitEnd{client, op, static_cast<std::uint8_t>(phase),
                              replica, static_cast<std::uint8_t>(!request),
                              request ? s.end_ns : s.start_ns,
                              static_cast<std::uint32_t>(RefShard(ref))});
      op_spans.push_back(OpInterval{client, op, iv});
    }
  }
  out.send_self_us = Mean(send_ns, out.sends) * 1e-3;
  out.storage_append_us = Mean(append_ns, out.appends) * 1e-3;

  std::unordered_map<std::uint64_t, Coverage> storage_cov;
  for (auto& [key, ivs] : storage) storage_cov.emplace(key, Coverage(ivs));
  const Coverage no_storage;

  // Pair each visit's first request arrival with the first reply after it.
  std::sort(ends.begin(), ends.end(),
            [](const VisitEnd& a, const VisitEnd& b) {
              return a.Key() < b.Key();
            });
  double service_ns = 0;
  for (std::size_t i = 0; i < ends.size();) {
    std::size_t j = i;
    while (j < ends.size() && ends[j].client == ends[i].client &&
           ends[j].op == ends[i].op && ends[j].phase == ends[i].phase &&
           ends[j].replica == ends[i].replica) {
      ++j;
    }
    // [i, j): requests (is_reply 0) sorted by time, then replies.
    const VisitEnd& req = ends[i];
    if (req.is_reply == 0) {
      for (std::size_t k = i; k < j; ++k) {
        if (ends[k].is_reply == 1 && ends[k].t >= req.t) {
          const Interval visit{req.t, ends[k].t};
          const auto it =
              storage_cov.find((std::uint64_t{req.replica} << 8) | req.shard);
          const Coverage& children =
              it == storage_cov.end() ? no_storage : it->second;
          service_ns += static_cast<double>(SelfTime(visit, children));
          ++out.visits;
          op_spans.push_back(OpInterval{req.client, req.op, visit});
          break;
        }
      }
    }
    i = j;
  }
  out.replica_service_us = Mean(service_ns, out.visits) * 1e-3;

  // Union of each sampled op's spans.
  std::sort(op_spans.begin(), op_spans.end(),
            [](const OpInterval& a, const OpInterval& b) {
              return std::tie(a.client, a.op) < std::tie(b.client, b.op);
            });
  double covered_ns = 0;
  std::vector<Interval> group;
  for (std::size_t i = 0; i < op_spans.size();) {
    std::size_t j = i;
    group.clear();
    while (j < op_spans.size() && op_spans[j].client == op_spans[i].client &&
           op_spans[j].op == op_spans[i].op) {
      group.push_back(op_spans[j].iv);
      ++j;
    }
    covered_ns += static_cast<double>(UnionLength(group));
    ++out.ops;
    i = j;
  }
  out.covered_us_per_op = Mean(covered_ns, out.ops) * 1e-3;
  return out;
}

double TimePickNs(const qcnt::quorum::QuorumSystem& system, bool write,
                  std::size_t calls) {
  const std::uint64_t up =
      system.n >= 64 ? ~0ull : (1ull << system.n) - 1;
  const auto& pick = write ? system.pick_write : system.pick_read;
  std::size_t members = 0;  // consumed below so the calls stay live
  const std::int64_t t0 = NowNs();
  for (std::size_t i = 0; i < calls; ++i) {
    const auto q = pick(up);
    members += q ? q->size() : 0;
  }
  const std::int64_t t1 = NowNs();
  if (members == 0) return 0.0;
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

CodecTimes TimeCodec(const std::vector<qcnt::net::WireFrame>& frames,
                     std::size_t reps) {
  CodecTimes out;
  if (frames.empty() || reps == 0) return out;
  std::vector<std::uint8_t> buf;
  std::int64_t encode = 0, decode = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    buf.clear();
    std::int64_t t0 = NowNs();
    for (const auto& f : frames) qcnt::net::EncodeFrame(f, buf);
    encode += NowNs() - t0;

    std::size_t off = 0, decoded = 0;
    t0 = NowNs();
    while (off < buf.size()) {
      const auto d = qcnt::net::DecodeFrame(buf.data() + off, buf.size() - off);
      if (d.status != qcnt::net::DecodeStatus::kOk) break;
      off += d.consumed;
      ++decoded;
    }
    decode += NowNs() - t0;
    if (decoded != frames.size() || off != buf.size()) {
      out.round_trip_ok = false;
    }
  }
  const double n = static_cast<double>(frames.size() * reps);
  out.encode_ns = static_cast<double>(encode) / n;
  out.decode_ns = static_cast<double>(decode) / n;
  return out;
}

double ReplaySendUs(const std::vector<qcnt::net::WireFrame>& frames,
                    std::size_t nodes, bool tcp) {
  if (frames.empty()) return 0.0;
  std::unique_ptr<qcnt::net::Transport> transport;
  if (tcp) {
    qcnt::net::TcpTransportOptions topts;
    topts.universe.resize(nodes);
    std::vector<qcnt::runtime::NodeId> local(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      local[i] = static_cast<qcnt::runtime::NodeId>(i);
    }
    transport = std::make_unique<qcnt::net::TcpTransport>(std::move(topts),
                                                          std::move(local));
  } else {
    transport = std::make_unique<qcnt::runtime::Bus>(nodes);
  }
  std::int64_t total = 0;
  for (const auto& f : frames) {
    qcnt::runtime::RtMessage msg = f.msg;
    const std::int64_t t0 = NowNs();
    transport->Send(f.from, f.to, std::move(msg));
    total += NowNs() - t0;
  }
  transport->CloseAll();
  return static_cast<double>(total) * 1e-3 /
         static_cast<double>(frames.size());
}

}  // namespace perfbench
