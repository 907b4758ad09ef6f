// Per-layer numbers from a traced run: span analysis, and timed calls into
// the layers whose cost per call is too small to span (quorum picks) or
// that the serving path of a workload does not reach (the codec on the
// Bus, the Bus on TCP), measured on the messages the run captured.
#pragma once

#include <cstdint>
#include <vector>

#include "net/codec.hpp"
#include "quorum/strategies.hpp"
#include "spans.hpp"

namespace perfbench {

struct SpanAnalysis {
  /// Mean self time of a Transport::Send span. No recorded span nests
  /// inside a Send, so its self time is its duration.
  double send_self_us = 0;
  std::uint64_t sends = 0;
  /// Mean duration of one ApplyWrite / ApplyWriteBatch call.
  double storage_append_us = 0;
  std::uint64_t appends = 0;
  /// Mean replica service time per (replica, op) visit: from the end of
  /// the request's Send to the start of the replica's reply Send for the
  /// same op and phase, minus the storage spans of the op's shard in
  /// between (the self time of the visit).
  double replica_service_us = 0;
  std::uint64_t visits = 0;
  /// Mean length of the union of an op's spans (its sends and replica
  /// visits), over the sampled ops.
  double covered_us_per_op = 0;
  std::uint64_t ops = 0;
};

/// Analyse spans of ops whose id is a multiple of `sample_every` (all
/// storage and send spans count toward the per-call means).
SpanAnalysis AnalyzeSpans(const std::vector<Span>& spans,
                          const std::vector<std::uint64_t>& refs,
                          std::size_t replicas, std::uint64_t sample_every);

/// Mean ns per pick_read (or pick_write) over the full member set.
double TimePickNs(const qcnt::quorum::QuorumSystem& system, bool write,
                  std::size_t calls);

struct CodecTimes {
  double encode_ns = 0;
  double decode_ns = 0;
  /// Every frame decoded back to the message encoded.
  bool round_trip_ok = true;
};
/// EncodeFrame / DecodeFrame over `frames`, `reps` times.
CodecTimes TimeCodec(const std::vector<qcnt::net::WireFrame>& frames,
                     std::size_t reps);

/// Mean Transport::Send time of `frames` replayed through a fresh
/// transport of `nodes` nodes that the serving path of the run did not
/// use: a loopback TcpTransport (`tcp`) or an in-process Bus.
double ReplaySendUs(const std::vector<qcnt::net::WireFrame>& frames,
                    std::size_t nodes, bool tcp);

}  // namespace perfbench
