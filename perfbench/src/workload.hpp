// The benchmark's workloads and their seeded op streams.
//
// Every workload runs 5 replicas under the store's default majority
// strategy and default shard/worker resolution, as closed loops: each load
// thread owns one client and waits for replies. A workload's inputs are a
// pure function of (workload, seed): per-thread op streams (key, read or
// write) generated before timing starts. Written values are made unique
// per write by the checker, so a read names the write it observed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class ClientKind : std::uint8_t { kSync, kAsync };

struct WorkloadSpec {
  std::string name;
  bool tcp = false;
  bool durable = false;
  ClientKind client = ClientKind::kSync;
  std::size_t threads = 1;
  /// Async client pipeline depth (outstanding ops per client).
  std::size_t window = 1;
  double write_share = 0.5;
  std::size_t keys = 0;
  /// Key popularity: uniform, or Zipf with this exponent (0 = uniform).
  double zipf_theta = 0.0;
  /// Reads draw only from the reading thread's own keys (every key is
  /// owned by thread key % threads; writes always go to owned keys).
  bool reads_owned_only = true;
  /// Ops per setup's warm-up, summed over threads.
  std::size_t warmup_ops = 0;
  /// Ops applied before the recovery measurement, summed over threads.
  std::size_t recovery_ops = 0;
};

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when no workload has this name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct Op {
  std::uint32_t key = 0;
  bool write = false;
};

/// Thread that owns (and alone writes) `key`.
inline std::size_t OwnerOf(std::uint32_t key, std::size_t threads) {
  return key % threads;
}

/// The key string for key index `key`.
std::string KeyName(std::uint32_t key);

/// `length` ops for `thread`, a pure function of its arguments. `stream`
/// separates independent streams of one run (warm-up, timed phase, ...).
std::vector<Op> MakeOps(const WorkloadSpec& spec, std::uint64_t seed,
                        std::size_t thread, std::uint64_t stream,
                        std::size_t length);

/// One write to each key `thread` owns, in key order (the preload).
std::vector<Op> PreloadOps(const WorkloadSpec& spec, std::size_t thread);

}  // namespace perfbench
