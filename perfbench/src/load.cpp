#include "load.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <thread>

#include "spans.hpp"

namespace perfbench {

using qcnt::runtime::AsyncQuorumClient;
using qcnt::runtime::ClientResult;
using qcnt::runtime::OpFuture;
using qcnt::runtime::QuorumClient;

namespace {

std::uint32_t ClampNs(std::int64_t ns) {
  if (ns < 0) return 0;
  return static_cast<std::uint32_t>(
      std::min<std::int64_t>(ns, std::numeric_limits<std::uint32_t>::max()));
}

bool ShouldStop(const PhaseLimits& limits, std::size_t issued,
                std::size_t stream_length, std::int64_t now) {
  if (limits.ops_per_thread != 0 && issued >= limits.ops_per_thread) {
    return true;
  }
  if (limits.one_pass && issued >= stream_length) return true;
  if (limits.deadline_ns != 0 && now >= limits.deadline_ns) return true;
  return limits.stop != nullptr &&
         limits.stop->load(std::memory_order_relaxed);
}

/// Where a thread files a completed op's latency.
struct Slots {
  std::int64_t start = 0;
  std::int64_t window_ns = 0;  // 0 = no windows: everything in slot 0
  std::size_t windows = 0;

  std::size_t Of(std::int64_t t) const {
    if (window_ns == 0) return 0;
    const auto w = static_cast<std::size_t>((t - start) / window_ns);
    return std::min(w, windows);
  }
};

/// One thread's view of an op between issue and completion.
struct Issued {
  Op op;
  std::int64_t value = 0;
  Checker::ReadTicket ticket;
  std::int64_t t0 = 0;
};

Issued Issue(const Op& op, std::size_t thread, Checker& checker) {
  Issued is;
  is.op = op;
  if (op.write) {
    is.value = checker.IssueWrite(thread, op.key);
  } else {
    is.ticket = checker.IssueRead(thread, op.key);
  }
  return is;
}

void Complete(const Issued& is, const ClientResult& r, std::int64_t t1,
              const Slots& slots, std::size_t thread, Checker& checker,
              PhaseResult& out) {
  out.retries += r.attempts > 1 ? r.attempts - 1 : 0;
  if (!r.ok) {
    ++out.failed;
    checker.OnFailure(std::string(is.op.write ? "write" : "read") + " of " +
                      std::to_string(is.op.key) + ": " +
                      qcnt::runtime::ToString(r.status));
    return;
  }
  if (is.op.write) {
    ++out.writes;
    out.write_ns[slots.Of(t1)].push_back(ClampNs(t1 - is.t0));
    checker.OnWriteAcked(is.op.key, r.version, is.value);
  } else {
    ++out.reads;
    out.read_ns[slots.Of(t1)].push_back(ClampNs(t1 - is.t0));
    checker.OnReadDone(thread, is.op.key, is.ticket, r.version, r.value);
  }
}

void RunSync(QuorumClient& client, std::size_t thread, const Slots& slots,
             const std::vector<Op>& stream,
             const std::vector<std::string>& names, Checker& checker,
             const PhaseLimits& limits, PhaseResult& out) {
  const std::uint64_t esc0 = client.Escalations();
  std::size_t i = 0;
  for (;;) {
    if (ShouldStop(limits, i, stream.size(), NowNs())) break;
    Issued is = Issue(stream[i % stream.size()], thread, checker);
    ++i;
    ++out.attempted;
    is.t0 = NowNs();
    const ClientResult r =
        is.op.write ? client.Write(names[is.op.key], is.value)
                    : client.Read(names[is.op.key]);
    Complete(is, r, NowNs(), slots, thread, checker, out);
  }
  out.escalations = client.Escalations() - esc0;
}

void RunAsync(AsyncQuorumClient& client, std::size_t window,
              std::size_t thread, const Slots& slots,
              const std::vector<Op>& stream,
              const std::vector<std::string>& names, Checker& checker,
              const PhaseLimits& limits, PhaseResult& out) {
  const AsyncQuorumClient::Stats s0 = client.ClientStats();
  struct Slot {
    Issued is;
    OpFuture future;
  };
  std::deque<Slot> pending;  // submission order
  std::size_t i = 0;
  bool stopping = false;
  for (;;) {
    while (!stopping && pending.size() < window) {
      const Op& op = stream[i % stream.size()];
      if (ShouldStop(limits, i, stream.size(), NowNs())) {
        stopping = true;
        break;
      }
      ++i;
      ++out.attempted;
      Issued is = Issue(op, thread, checker);
      is.t0 = NowNs();
      OpFuture f = op.write ? client.SubmitWrite(names[op.key], is.value)
                            : client.SubmitRead(names[op.key]);
      pending.push_back(Slot{is, std::move(f)});
    }
    if (pending.empty()) break;
    pending.front().future.Get();
    const std::int64_t t1 = NowNs();
    // Collect every op complete by now, in submission order.
    std::size_t kept = 0;
    for (std::size_t j = 0; j < pending.size(); ++j) {
      if (pending[j].future.Ready()) {
        Complete(pending[j].is, pending[j].future.Get(), t1, slots, thread,
                 checker, out);
      } else {
        if (kept != j) pending[kept] = std::move(pending[j]);
        ++kept;
      }
    }
    while (pending.size() > kept) pending.pop_back();
    if (!stopping) stopping = ShouldStop(limits, i, stream.size(), t1);
  }
  const AsyncQuorumClient::Stats& s1 = client.ClientStats();
  out.retries = s1.retries - s0.retries;
  out.escalations = s1.escalations - s0.escalations;
  out.batches_sent = s1.batches_sent - s0.batches_sent;
  out.batched_requests = s1.batched_requests - s0.batched_requests;
}

}  // namespace

double PhaseResult::MeanLatencyNs() const {
  double sum = 0;
  std::size_t n = 0;
  for (const auto* slots : {&read_ns, &write_ns}) {
    for (const auto& slot : *slots) {
      for (const std::uint32_t v : slot) sum += v;
      n += slot.size();
    }
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

PhaseResult RunPhase(const Clients& clients,
                     const std::vector<std::vector<Op>>& streams,
                     const std::vector<std::string>& key_names,
                     Checker& checker, const PhaseLimits& limits) {
  const std::size_t n = clients.size();
  const bool windowed = limits.windows > 0 && limits.deadline_ns != 0;
  const std::size_t slot_count = windowed ? limits.windows + 1 : 1;
  std::vector<PhaseResult> parts(n);
  for (PhaseResult& p : parts) {
    p.read_ns.resize(slot_count);
    p.write_ns.resize(slot_count);
  }
  std::vector<std::int64_t> ends(n, 0);
  std::atomic<bool> go{false};
  Slots slots;  // published to the threads by `go`
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (clients.sync.empty()) {
        RunAsync(*clients.async[t], clients.window, t, slots, streams[t],
                 key_names, checker, limits, parts[t]);
      } else {
        RunSync(*clients.sync[t], t, slots, streams[t], key_names, checker,
                limits, parts[t]);
      }
      ends[t] = NowNs();
    });
  }
  const std::int64_t start = NowNs();
  slots.start = start;
  if (windowed) {
    slots.windows = limits.windows;
    slots.window_ns = std::max<std::int64_t>(
        1, (limits.deadline_ns - start) / static_cast<std::int64_t>(limits.windows));
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  PhaseResult total;
  total.read_ns.resize(slot_count);
  total.write_ns.resize(slot_count);
  total.windows = slots.windows;
  total.window_s = static_cast<double>(slots.window_ns) * 1e-9;
  std::int64_t end = start;
  for (std::size_t t = 0; t < n; ++t) {
    PhaseResult& p = parts[t];
    total.attempted += p.attempted;
    total.failed += p.failed;
    total.reads += p.reads;
    total.writes += p.writes;
    total.retries += p.retries;
    total.escalations += p.escalations;
    total.batches_sent += p.batches_sent;
    total.batched_requests += p.batched_requests;
    for (std::size_t w = 0; w < slot_count; ++w) {
      total.read_ns[w].insert(total.read_ns[w].end(), p.read_ns[w].begin(),
                              p.read_ns[w].end());
      total.write_ns[w].insert(total.write_ns[w].end(), p.write_ns[w].begin(),
                               p.write_ns[w].end());
    }
    end = std::max(end, ends[t]);
  }
  total.elapsed_s = static_cast<double>(end - start) * 1e-9;
  return total;
}

bool ScanAll(AsyncQuorumClient& client,
             const std::vector<std::string>& key_names, Checker& checker) {
  constexpr std::size_t kChunk = 1024;
  bool ok = true;
  for (std::size_t base = 0; base < key_names.size(); base += kChunk) {
    const std::size_t end = std::min(key_names.size(), base + kChunk);
    std::vector<OpFuture> futures;
    futures.reserve(end - base);
    for (std::size_t k = base; k < end; ++k) {
      futures.push_back(client.SubmitRead(key_names[k]));
    }
    for (std::size_t k = base; k < end; ++k) {
      const ClientResult r = futures[k - base].Get();
      if (!r.ok) {
        ok = false;
        checker.OnFailure("scan read of " + std::to_string(k));
        continue;
      }
      checker.CheckScan(static_cast<std::uint32_t>(k), r.version, r.value);
    }
  }
  return ok;
}

double QuantileUs(std::vector<std::uint32_t>& latencies_ns, double q) {
  if (latencies_ns.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(latencies_ns.size())));
  const std::size_t idx =
      rank == 0 ? 0 : std::min(rank, latencies_ns.size()) - 1;
  std::nth_element(latencies_ns.begin(), latencies_ns.begin() + idx,
                   latencies_ns.end());
  return latencies_ns[idx] * 1e-3;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

WindowedStats Windowed(PhaseResult& phase) {
  WindowedStats out;
  out.windows = phase.windows;
  if (out.windows == 0) return out;
  out.min_reads = out.min_writes = ~std::size_t{0};
  for (std::size_t w = 0; w < out.windows; ++w) {
    std::vector<std::uint32_t>& reads = phase.read_ns[w];
    std::vector<std::uint32_t>& writes = phase.write_ns[w];
    out.tput.push_back(static_cast<double>(reads.size() + writes.size()) /
                       phase.window_s);
    out.min_reads = std::min(out.min_reads, reads.size());
    out.min_writes = std::min(out.min_writes, writes.size());
    out.r50.push_back(QuantileUs(reads, 0.50));
    out.r99.push_back(QuantileUs(reads, 0.99));
    out.w50.push_back(QuantileUs(writes, 0.50));
    out.w99.push_back(QuantileUs(writes, 0.99));
  }
  auto lowest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  out.throughput_ops_s = *std::max_element(out.tput.begin(), out.tput.end());
  out.read_p50_us = lowest(out.r50);
  out.read_p99_us = lowest(out.r99);
  out.write_p50_us = lowest(out.w50);
  out.write_p99_us = lowest(out.w99);
  return out;
}

}  // namespace perfbench
