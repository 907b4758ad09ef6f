#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;

    // CPU-bound on client batching, mailbox handoffs and dispatch-to-worker
    // routing, with no codec or WAL work: where multi-core sharding and Bus
    // changes show, and the bypass case for codec and WAL changes.
    WorkloadSpec mem;
    mem.name = "mem-pipelined";
    mem.client = ClientKind::kAsync;
    mem.threads = 2;
    mem.window = 64;
    mem.write_share = 0.5;
    mem.keys = 16384;
    mem.warmup_ops = 40000;
    mem.recovery_ops = 40000;
    w.push_back(mem);

    // Every op pays codec + sockets and every write a WAL append and a
    // group-commit fsync, with segment rotation and checkpoints cycling
    // during the run: where wire and storage changes show.
    WorkloadSpec tcp;
    tcp.name = "tcp-durable";
    tcp.tcp = true;
    tcp.durable = true;
    tcp.client = ClientKind::kAsync;
    tcp.threads = 1;
    tcp.window = 64;
    tcp.write_share = 0.8;
    tcp.keys = 65536;
    tcp.warmup_ops = 10000;
    tcp.recovery_ops = 40000;
    w.push_back(tcp);

    // Latency-bound: one or two round trips per op, no batching — the
    // blocking client path. Reads of hot keys beside their owner's writes
    // expose a read-path change that costs writes.
    WorkloadSpec sync;
    sync.name = "sync-readmostly";
    sync.client = ClientKind::kSync;
    sync.threads = 3;
    sync.window = 1;
    sync.write_share = 0.1;
    sync.keys = 4096;
    sync.zipf_theta = 0.99;
    sync.reads_owned_only = false;
    sync.warmup_ops = 20000;
    sync.recovery_ops = 20000;
    w.push_back(sync);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string KeyName(std::uint32_t key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%07u", key);
  return buf;
}

namespace {

/// SplitMix64: small, fast, and identical on every platform (unlike the
/// standard distributions, whose output is implementation-defined).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint32_t Below(std::uint64_t n) {
    return static_cast<std::uint32_t>(Next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Zipf(theta) over ranks [0, n): rank r has weight 1 / (r + 1)^theta.
class Zipf {
 public:
  Zipf(std::size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::uint32_t Sample(SplitMix& rng) const {
    const double u = rng.Unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const auto r = static_cast<std::size_t>(it - cdf_.begin());
    return static_cast<std::uint32_t>(std::min(r, cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

std::vector<Op> MakeOps(const WorkloadSpec& spec, std::uint64_t seed,
                        std::size_t thread, std::uint64_t stream,
                        std::size_t length) {
  SplitMix rng(seed * 0x100000001b3ull ^ (stream << 32) ^ (thread + 1));
  const std::size_t owned = spec.keys / spec.threads;
  const bool zipf = spec.zipf_theta > 0.0;
  const Zipf dist(zipf ? spec.keys : 1, zipf ? spec.zipf_theta : 1.0);
  auto draw_any = [&]() -> std::uint32_t {
    return zipf ? dist.Sample(rng) : rng.Below(spec.keys);
  };
  auto draw_owned = [&]() -> std::uint32_t {
    if (!zipf) {
      return static_cast<std::uint32_t>(rng.Below(owned) * spec.threads +
                                         thread);
    }
    for (;;) {  // rejection keeps the Zipf shape within the owned keys
      const std::uint32_t k = dist.Sample(rng);
      if (OwnerOf(k, spec.threads) == thread) return k;
    }
  };
  std::vector<Op> ops(length);
  for (Op& op : ops) {
    op.write = rng.Unit() < spec.write_share;
    op.key = op.write || spec.reads_owned_only ? draw_owned() : draw_any();
  }
  return ops;
}

std::vector<Op> PreloadOps(const WorkloadSpec& spec, std::size_t thread) {
  std::vector<Op> ops;
  for (std::uint32_t k = static_cast<std::uint32_t>(thread); k < spec.keys;
       k += static_cast<std::uint32_t>(spec.threads)) {
    ops.push_back(Op{k, true});
  }
  return ops;
}

}  // namespace perfbench
