// Closed-loop load phases: one thread per client, each issuing its op
// stream and waiting for replies, timed op by op from the call that
// issues the op to the moment the thread sees it complete.
//
// A blocking QuorumClient has one op outstanding. An AsyncQuorumClient
// keeps `window` ops outstanding: the thread submits until the window is
// full, then waits for the oldest op and collects every op that has
// completed by then, in submission order (same-key ops complete in that
// order, so the checker's per-key model stays exact).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "checker.hpp"
#include "runtime/async_client.hpp"
#include "runtime/client.hpp"
#include "workload.hpp"

namespace perfbench {

struct PhaseLimits {
  /// Stop issuing at this NowNs() instant (0 = no deadline).
  std::int64_t deadline_ns = 0;
  /// Stop after this many ops per thread (0 = no limit).
  std::size_t ops_per_thread = 0;
  /// Stop after one pass over each thread's stream.
  bool one_pass = false;
  /// Stop when this flag turns true (nullptr = never).
  const std::atomic<bool>* stop = nullptr;
  /// With a deadline: cut [start, deadline) into this many equal windows
  /// and keep latencies per completion window (see Windowed()).
  std::size_t windows = 0;
};

struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Latencies (ns) of completed ops by completion window: slot w <
  /// `windows` holds the ops that completed in window w, the last slot the
  /// rest (ops completing after the deadline, or every op of a phase
  /// without windows).
  std::vector<std::vector<std::uint32_t>> read_ns, write_ns;
  std::size_t windows = 0;
  double window_s = 0.0;
  double elapsed_s = 0.0;
  /// Client-side counters accumulated over the phase.
  std::uint64_t retries = 0;
  std::uint64_t escalations = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t batched_requests = 0;

  std::uint64_t Completed() const { return reads + writes; }
  double Throughput() const {
    return elapsed_s > 0 ? static_cast<double>(Completed()) / elapsed_s : 0;
  }
  double MeanLatencyNs() const;
};

/// The clients of one phase: exactly one of the two lists is non-empty.
struct Clients {
  std::vector<qcnt::runtime::QuorumClient*> sync;
  std::vector<qcnt::runtime::AsyncQuorumClient*> async;
  std::size_t window = 1;

  std::size_t size() const { return sync.empty() ? async.size() : sync.size(); }
};

/// Run one phase: thread t drives client t over streams[t] (cycled) until
/// a limit trips, then waits for its outstanding ops.
PhaseResult RunPhase(const Clients& clients,
                     const std::vector<std::vector<Op>>& streams,
                     const std::vector<std::string>& key_names,
                     Checker& checker, const PhaseLimits& limits);

/// Quorum-read every key through `client` and compare with the model.
/// Returns false if some read failed.
bool ScanAll(qcnt::runtime::AsyncQuorumClient& client,
             const std::vector<std::string>& key_names, Checker& checker);

/// Throughput and latency quantiles of a phase, computed per completion
/// window (ops completing after the deadline are left out). Each is
/// reported from its best window: the highest throughput, the lowest
/// percentile. Load from outside the benchmark only ever slows a window
/// down, and on a shared host it comes in bursts that can cover most of a
/// run, so the least-disturbed window is the steadiest estimate of the
/// program's own cost. A window is long enough to hold many group-commit
/// and checkpoint cycles, so their stalls are in every window's tail.
struct WindowedStats {
  std::size_t windows = 0;
  double throughput_ops_s = 0;
  double read_p50_us = 0, read_p99_us = 0;
  double write_p50_us = 0, write_p99_us = 0;
  /// Fewest samples behind any window's read / write p99.
  std::size_t min_reads = 0, min_writes = 0;
  /// The per-window values the medians are taken over.
  std::vector<double> tput, r50, r99, w50, w99;
};
WindowedStats Windowed(PhaseResult& phase);

double Median(std::vector<double> v);

/// Exact quantile (nearest rank) of latencies in microseconds; reorders.
double QuantileUs(std::vector<std::uint32_t>& latencies_ns, double q);

}  // namespace perfbench
