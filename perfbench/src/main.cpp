// qcnt_perf: one run of one benchmark workload against the replicated
// store.
//
//   qcnt_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// --trace 0: the end-to-end run. The store is built through the public
// runtime::ReplicatedStore API three times (construction + preload +
// warm-up, timed as setup_s; the median is reported). The first store
// then applies a fixed, seeded op count and is crashed and recovered
// repeatedly (recover_s, median). The last store runs the timed
// closed-loop phase for --seconds; throughput and latency percentiles are
// taken from the best of its 10 windows (see Windowed()). Every result is checked (checker.hpp), and
// a quorum scan of every key must match the model after the phase — on
// tcp-durable also after every replica has been crashed and recovered.
//
// --trace 1: the per-layer run, two phases of --seconds / 2 each. One
// untraced store gives the throughput baseline and the recovery counters;
// then the traced stack (stack.hpp) runs the same op streams with spans
// recorded (until the span cap), and the per-layer numbers come from its
// spans and counters.
//
// Output: a human-readable "detail" JSON line (config, host, samples,
// checks), then as the last line the result object
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "runtime/store.hpp"
#include "spans.hpp"
#include "stack.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using qcnt::runtime::AsyncQuorumClient;
using qcnt::runtime::QuorumClient;
using qcnt::runtime::ReplicatedStore;
using qcnt::runtime::StoreOptions;
namespace fs = std::filesystem;

constexpr std::size_t kReplicas = 5;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kStreamLength = 1u << 20;
constexpr std::size_t kSpanCap = 1500000;
constexpr std::size_t kCaptureFrames = 4096;
constexpr std::uint64_t kSampleEvery = 4;
/// The timed phase is cut into this many windows (see Windowed()).
constexpr std::size_t kWindows = 10;

// Op streams of one run (MakeOps `stream` argument).
constexpr std::uint64_t kWarmupStream = 1;
constexpr std::uint64_t kRecoveryStream = 2;
constexpr std::uint64_t kTimedStream = 3;

// ---------------------------------------------------------------- output

/// A flat JSON object builder; numbers keep every digit.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Obj(const std::string& key, const Json& v) { return Raw(key, v.str()); }
  Json& Nums(const std::string& key, const std::vector<double>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", vs[i]);
      if (i > 0) s += ',';
      s += buf;
    }
    return Raw(key, s + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& Raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += Quote(key) + ": " + v;
    return *this;
  }
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }
  std::string body_;
};

/// Named metrics with units, in insertion order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    json_.Obj(name, Json().Num("value", value).Str("unit", unit));
  }
  const Json& json() const { return json_; }

 private:
  Json json_;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ------------------------------------------------------------ the runs

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

/// Everything the load needs from one store, traced or not. Clients are
/// declared after the owner they reference, so they are destroyed first.
struct Fleet {
  std::vector<std::unique_ptr<QuorumClient>> sync;
  std::vector<std::unique_ptr<AsyncQuorumClient>> async;
  std::unique_ptr<QuorumClient> probe;          // recovery quorum reads
  std::unique_ptr<AsyncQuorumClient> scanner;   // post-phase scans
  std::unique_ptr<Checker> checker;

  Clients View(const WorkloadSpec& spec) const {
    Clients c;
    c.window = spec.window;
    for (const auto& s : sync) c.sync.push_back(s.get());
    for (const auto& a : async) c.async.push_back(a.get());
    return c;
  }
};

AsyncQuorumClient::Options PipelineOptions(const WorkloadSpec& spec) {
  AsyncQuorumClient::Options o;
  o.window = spec.window;
  return o;
}

AsyncQuorumClient::Options ScanOptions() {
  AsyncQuorumClient::Options o;
  o.window = 64;
  return o;
}

/// Make the workload's clients through `maker` (a ReplicatedStore or a
/// TracedStack).
template <typename Maker>
Fleet MakeFleet(Maker& maker, const WorkloadSpec& spec) {
  Fleet f;
  for (std::size_t t = 0; t < spec.threads; ++t) {
    if (spec.client == ClientKind::kSync) {
      f.sync.push_back(maker.MakeClient());
    } else {
      f.async.push_back(maker.MakeAsyncClient(PipelineOptions(spec)));
    }
  }
  f.probe = maker.MakeClient();
  f.scanner = maker.MakeAsyncClient(ScanOptions());
  f.checker = std::make_unique<Checker>(spec.keys, spec.threads,
                                        !spec.reads_owned_only);
  return f;
}

std::vector<std::vector<Op>> Streams(const WorkloadSpec& spec,
                                     std::uint64_t seed, std::uint64_t stream,
                                     std::size_t per_thread) {
  std::vector<std::vector<Op>> out;
  for (std::size_t t = 0; t < spec.threads; ++t) {
    out.push_back(MakeOps(spec, seed, t, stream, per_thread));
  }
  return out;
}

struct Inputs {
  std::vector<std::string> names;
  std::vector<std::vector<Op>> preload, warmup, recovery, timed;
};

Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  for (std::uint32_t k = 0; k < spec.keys; ++k) in.names.push_back(KeyName(k));
  for (std::size_t t = 0; t < spec.threads; ++t) {
    in.preload.push_back(PreloadOps(spec, t));
  }
  in.warmup = Streams(spec, seed, kWarmupStream,
                      spec.warmup_ops / spec.threads);
  in.recovery = Streams(spec, seed, kRecoveryStream,
                        spec.recovery_ops / spec.threads);
  in.timed = Streams(spec, seed, kTimedStream, kStreamLength);
  return in;
}

/// Preload every key once, then run the warm-up op count.
void Prepare(Fleet& f, const WorkloadSpec& spec, const Inputs& in) {
  PhaseLimits preload;
  preload.one_pass = true;
  RunPhase(f.View(spec), in.preload, in.names, *f.checker, preload);
  PhaseLimits warm;
  warm.ops_per_thread = spec.warmup_ops / spec.threads;
  RunPhase(f.View(spec), in.warmup, in.names, *f.checker, warm);
}

StoreOptions MakeStoreOptions(const WorkloadSpec& spec,
                              const std::string& dir) {
  StoreOptions o;
  o.replicas = kReplicas;
  if (spec.tcp) o.tcp = qcnt::runtime::TcpStoreOptions{};
  if (spec.durable) {
    qcnt::storage::DurabilityOptions d;
    d.directory = dir;
    d.fsync = qcnt::storage::FsyncPolicy::kGroupCommit;
    o.durability = d;
  }
  return o;
}

/// Crash every replica, then time Recover() of all of them plus the
/// first successful quorum read. Returns seconds; checks the read.
double CrashAndRecoverAll(ReplicatedStore& store, Fleet& f) {
  for (std::size_t r = 0; r < store.ReplicaCount(); ++r) store.Crash(r);
  const std::int64_t t0 = NowNs();
  for (std::size_t r = 0; r < store.ReplicaCount(); ++r) store.Recover(r);
  qcnt::runtime::ClientResult res;
  for (int attempt = 0; attempt < 50 && !res.ok; ++attempt) {
    res = f.probe->Read(KeyName(0));
  }
  const std::int64_t t1 = NowNs();
  if (!res.ok) {
    f.checker->OnFailure("quorum read after recovery");
  } else {
    f.checker->CheckScan(0, res.version, res.value);
  }
  return static_cast<double>(t1 - t0) * 1e-9;
}

struct Resolved {
  std::size_t shards = 0;
  std::size_t workers = 0;
  std::string transport;
};

struct CheckTotals {
  bool correct = true;
  std::uint64_t violations = 0;
  std::uint64_t reads_checked = 0;
  std::uint64_t scans = 0;
  std::string first;

  void Absorb(const Checker& c) {
    violations += c.Violations();
    reads_checked += c.ReadsChecked();
    if (!c.Ok()) {
      correct = false;
      if (first.empty()) first = c.FirstViolation();
    }
  }
};

struct UntracedResult {
  PhaseResult timed;
  std::vector<double> setup_s;
  std::vector<double> recover_s;
  double recovery_replayed = 0;  // WAL records replayed per full recovery
  Resolved resolved;
};

UntracedResult RunUntraced(const WorkloadSpec& spec, const Inputs& in,
                           double seconds, const std::string& work,
                           std::size_t setups, CheckTotals& checks) {
  UntracedResult out;
  // Memory-backend recoveries take tens of microseconds, so many more of
  // them are needed for a steady median.
  const std::size_t recover_reps = spec.durable ? 7 : 101;
  for (std::size_t i = 0; i < setups; ++i) {
    const std::string dir = work + "/store" + std::to_string(i);
    const std::int64_t t0 = NowNs();
    auto store = std::make_unique<ReplicatedStore>(MakeStoreOptions(spec, dir));
    Fleet f = MakeFleet(*store, spec);
    Prepare(f, spec, in);
    out.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    out.resolved = Resolved{store->ShardsPerReplica(),
                            store->ReplicaWorkerCount(0),
                            store->TransportName()};

    if (i == 0) {
      // Recovery is measured on a state reached by a fixed, seeded op
      // count, so the WAL tail replayed is the same on every run.
      PhaseLimits fixed;
      fixed.ops_per_thread = spec.recovery_ops / spec.threads;
      RunPhase(f.View(spec), in.recovery, in.names, *f.checker, fixed);
      CrashAndRecoverAll(*store, f);  // untimed: lets lazy set-up finish
      const std::uint64_t replayed0 =
          store->TotalStorageStats().recovery_replayed;
      for (std::size_t r = 0; r < recover_reps; ++r) {
        out.recover_s.push_back(CrashAndRecoverAll(*store, f));
      }
      out.recovery_replayed =
          static_cast<double>(store->TotalStorageStats().recovery_replayed -
                              replayed0) /
          static_cast<double>(recover_reps);
      checks.scans += ScanAll(*f.scanner, in.names, *f.checker) ? 1 : 0;
    }

    if (i + 1 == setups) {
      PhaseLimits timed;
      timed.deadline_ns = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
      timed.windows = kWindows;
      out.timed = RunPhase(f.View(spec), in.timed, in.names, *f.checker,
                           timed);
      checks.scans += ScanAll(*f.scanner, in.names, *f.checker) ? 1 : 0;
      if (spec.durable) {
        // Durability: every acked write survives a crash of every replica.
        CrashAndRecoverAll(*store, f);
        checks.scans += ScanAll(*f.scanner, in.names, *f.checker) ? 1 : 0;
      }
    }
    f.checker->VerifyHistory();
    checks.Absorb(*f.checker);
    f = Fleet{};
    store.reset();
    fs::remove_all(dir);
  }
  return out;
}

/// Counter snapshot of the traced stack.
struct Counters {
  std::uint64_t msgs = 0;
  std::uint64_t mailbox_handoffs = 0;
  std::uint64_t mailbox_wakeups = 0;
  std::uint64_t worker_handoffs = 0;
  std::uint64_t worker_wakeups = 0;
  std::uint64_t batches_applied = 0;
  std::uint64_t batched_ops = 0;
  std::vector<std::vector<std::uint64_t>> shard_ops;  // [replica][shard]
  qcnt::storage::StorageStats storage;
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;
};

Counters Snapshot(TracedStack& stack) {
  Counters c;
  c.msgs = stack.Transport().MessagesSent();
  c.mailbox_handoffs = stack.MailboxHandoffs();
  c.mailbox_wakeups = stack.MailboxWakeups();
  for (std::size_t r = 0; r < stack.Replicas(); ++r) {
    const qcnt::runtime::BatchStats b = stack.Replica(r).BatchStats();
    c.worker_handoffs += b.worker_handoffs;
    c.worker_wakeups += b.worker_wakeups;
    c.batches_applied += b.batches_applied;
    c.batched_ops += b.batched_ops;
    std::vector<std::uint64_t> ops;
    for (const auto& s : b.per_shard) ops.push_back(s.ops);
    c.shard_ops.push_back(ops);
    c.storage += stack.Replica(r).StorageStats();
  }
  if (stack.Tcp() != nullptr) {
    const qcnt::net::TcpStats w = stack.Tcp()->WireStats();
    c.frames = w.frames_sent;
    c.wire_bytes = w.bytes_sent;
  }
  return c;
}

/// Busiest shard's ops over the mean shard's, averaged over replicas.
double ShardBalance(const Counters& a, const Counters& b) {
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t r = 0; r < b.shard_ops.size(); ++r) {
    std::uint64_t max = 0, total = 0;
    for (std::size_t s = 0; s < b.shard_ops[r].size(); ++s) {
      const std::uint64_t d = b.shard_ops[r][s] - a.shard_ops[r][s];
      max = std::max(max, d);
      total += d;
    }
    if (total == 0) continue;
    sum += static_cast<double>(max) * static_cast<double>(b.shard_ops[r].size()) /
           static_cast<double>(total);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

struct TracedResult {
  PhaseResult phase;
  Metrics layers;
  Json detail;
};

TracedResult RunTraced(const WorkloadSpec& spec, const Inputs& in,
                       double seconds, const std::string& spans_path,
                       const std::string& work, double untraced_throughput,
                       double recovery_replayed, CheckTotals& checks) {
  TracedResult out;
  SpanLog log(kSpanCap);
  StackOptions so;
  so.replicas = kReplicas;
  so.tcp = spec.tcp;
  so.capture_frames = kCaptureFrames;
  if (spec.durable) {
    so.durability = MakeStoreOptions(spec, work + "/traced").durability;
  }
  const std::size_t nodes = so.replicas + so.max_clients + 1;
  auto stack = std::make_unique<TracedStack>(so, log);
  Fleet f = MakeFleet(*stack, spec);
  Prepare(f, spec, in);

  const Counters c0 = Snapshot(*stack);
  std::atomic<bool> stop{false};
  PhaseLimits limits;
  limits.deadline_ns = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  limits.stop = &stop;
  std::thread watcher([&] {
    while (NowNs() < limits.deadline_ns && !log.Full() && !stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
  });
  log.Start();
  out.phase = RunPhase(f.View(spec), in.timed, in.names, *f.checker, limits);
  log.Stop();
  stop.store(true);
  watcher.join();
  const Counters c1 = Snapshot(*stack);
  const std::uint64_t commit_passes = stack->CommitPasses();

  f.checker->VerifyHistory();
  checks.scans += ScanAll(*f.scanner, in.names, *f.checker) ? 1 : 0;
  checks.Absorb(*f.checker);

  // Quorum picks, timed on the installed system.
  const auto config = stack->Table().At(0);
  const double pick_read_ns = TimePickNs(config->system, false, 200000);
  const double pick_write_ns = TimePickNs(config->system, true, 200000);
  const std::uint64_t up = (1ull << kReplicas) - 1;
  const double q_read = static_cast<double>(config->system.pick_read(up)->size());
  const double q_write =
      static_cast<double>(config->system.pick_write(up)->size());

  f = Fleet{};
  stack->Shutdown();
  const std::vector<qcnt::net::WireFrame> frames =
      stack->Transport().Captured();
  std::vector<std::uint64_t> refs;
  const std::vector<Span> spans = log.Collect(&refs);
  stack.reset();
  fs::remove_all(work + "/traced");

  const SpanAnalysis sa = AnalyzeSpans(spans, refs, kReplicas, kSampleEvery);
  if (!spans_path.empty()) WriteSpans(spans_path, spans, refs);
  const CodecTimes codec = TimeCodec(frames, 20);
  if (!codec.round_trip_ok) {
    checks.correct = false;
    if (checks.first.empty()) checks.first = "captured frame failed to decode";
  }
  // The send step of the transport the run did not use, replayed on the
  // run's captured messages.
  const double replay_send_us = ReplaySendUs(frames, nodes, !spec.tcp);

  const PhaseResult& p = out.phase;
  const double ops = static_cast<double>(p.Completed());
  const double reads = static_cast<double>(p.reads);
  const double writes = static_cast<double>(p.writes);
  const double floor_msgs =
      reads * 2 * q_read + writes * (2 * q_read + 2 * q_write);
  const double msgs = static_cast<double>(c1.msgs - c0.msgs);
  const qcnt::storage::StorageStats& s0 = c0.storage;
  const qcnt::storage::StorageStats& s1 = c1.storage;
  const double fsyncs = static_cast<double>(s1.fsyncs - s0.fsyncs);
  const double records =
      static_cast<double>(s1.records_appended - s0.records_appended);
  const double user_bytes =
      writes * static_cast<double>(KeyName(0).size() + sizeof(std::int64_t));
  const double batches = static_cast<double>(c1.batches_applied -
                                             c0.batches_applied);

  Metrics& m = out.layers;
  m.Add("client.msgs_per_op", Ratio(msgs, ops), "msgs/op");
  m.Add("client.msgs_over_floor", Ratio(msgs, floor_msgs), "ratio");
  m.Add("client.batch_ops",
        spec.client == ClientKind::kSync
            ? 1.0
            : Ratio(static_cast<double>(p.batched_requests),
                    static_cast<double>(p.batches_sent)),
        "ops/batch");
  m.Add("client.retries_per_op", Ratio(static_cast<double>(p.retries), ops),
        "1/op");
  m.Add("client.escalations_per_op",
        Ratio(static_cast<double>(p.escalations), ops), "1/op");
  m.Add("quorum.pick_read_ns", pick_read_ns, "ns");
  m.Add("quorum.pick_write_ns", pick_write_ns, "ns");
  m.Add("bus.send_us", spec.tcp ? replay_send_us : sa.send_self_us, "us");
  m.Add("bus.mailbox_wakeups_per_op",
        Ratio(static_cast<double>(c1.mailbox_wakeups - c0.mailbox_wakeups),
              ops),
        "1/op");
  m.Add("bus.mailbox_handoffs_per_op",
        Ratio(static_cast<double>(c1.mailbox_handoffs - c0.mailbox_handoffs),
              ops),
        "1/op");
  m.Add("net.send_us", spec.tcp ? sa.send_self_us : replay_send_us, "us");
  m.Add("net.encode_ns_per_frame", codec.encode_ns, "ns");
  m.Add("net.decode_ns_per_frame", codec.decode_ns, "ns");
  m.Add("net.frames_per_op",
        Ratio(static_cast<double>(c1.frames - c0.frames), ops), "frames/op");
  m.Add("net.bytes_per_op",
        Ratio(static_cast<double>(c1.wire_bytes - c0.wire_bytes), ops),
        "B/op");
  m.Add("replica.service_us", sa.replica_service_us, "us");
  m.Add("replica.worker_handoffs_per_op",
        Ratio(static_cast<double>(c1.worker_handoffs - c0.worker_handoffs),
              ops),
        "1/op");
  m.Add("replica.worker_wakeups_per_op",
        Ratio(static_cast<double>(c1.worker_wakeups - c0.worker_wakeups), ops),
        "1/op");
  m.Add("replica.batch_ops",
        batches == 0
            ? 1.0
            : Ratio(static_cast<double>(c1.batched_ops - c0.batched_ops),
                    batches),
        "ops/batch");
  m.Add("replica.shard_balance", ShardBalance(c0, c1), "ratio");
  m.Add("storage.append_us", sa.storage_append_us, "us");
  m.Add("storage.records_per_fsync", Ratio(records, fsyncs), "records/fsync");
  m.Add("storage.fsyncs_per_op", Ratio(fsyncs, ops), "1/op");
  m.Add("storage.bytes_per_user_byte",
        Ratio(static_cast<double>(s1.bytes_appended - s0.bytes_appended),
              user_bytes),
        "ratio");
  m.Add("storage.checkpoints",
        static_cast<double>(s1.checkpoints_written - s0.checkpoints_written),
        "count");
  m.Add("storage.segments_rotated",
        static_cast<double>(s1.segments_rotated - s0.segments_rotated),
        "count");
  m.Add("storage.recovery_replayed", recovery_replayed, "records");
  m.Add("trace.coverage",
        Ratio(sa.covered_us_per_op * 1e3, p.MeanLatencyNs()), "ratio");
  m.Add("trace.overhead",
        Ratio(untraced_throughput - p.Throughput(), untraced_throughput),
        "ratio");

  out.detail.Num("traced_throughput_ops_s", p.Throughput())
      .Num("untraced_throughput_ops_s", untraced_throughput)
      .Num("traced_seconds", p.elapsed_s)
      .Int("spans", spans.size())
      .Int("spans_dropped", log.Dropped())
      .Int("span_sends", sa.sends)
      .Int("span_appends", sa.appends)
      .Int("replica_visits", sa.visits)
      .Int("sampled_ops", sa.ops)
      .Num("mean_op_latency_us", p.MeanLatencyNs() * 1e-3)
      .Num("covered_us_per_op", sa.covered_us_per_op)
      .Int("captured_frames", frames.size())
      .Str("bus_send_from", spec.tcp ? "replay" : "spans")
      .Str("net_send_from", spec.tcp ? "spans" : "replay")
      .Int("commit_passes", commit_passes)
      .Num("read_quorum", q_read)
      .Num("write_quorum", q_write);
  return out;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--spans") {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: qcnt_perf --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>]\n";
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'; known:";
    for (const auto& w : Workloads()) std::cerr << ' ' << w.name;
    std::cerr << '\n';
    return 2;
  }
  // The store reads these to override shard/worker counts, the strategy,
  // the fault seed and TCP ports; a CI matrix that sets them would
  // silently change the program under test.
  for (const char* var : {"QCNT_SHARDS", "QCNT_WORKERS", "QCNT_STRATEGY",
                          "QCNT_FAULT_SEED", "QCNT_TCP_PORT_BASE"}) {
    ::unsetenv(var);
  }

  const std::string work = ".bench_work/run-" + std::to_string(::getpid());
  fs::remove_all(work);
  fs::create_directories(work);

  const Inputs in = MakeInputs(*spec, args.seed);
  CheckTotals checks;
  // A traced run times two phases (untraced baseline, traced), each for
  // half of --seconds.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  UntracedResult u = RunUntraced(*spec, in, phase_s, work,
                                 args.trace ? 1 : kSetups, checks);

  Metrics metrics;
  Json detail;
  std::uint64_t attempted = u.timed.attempted;
  std::uint64_t failed = u.timed.failed;
  if (!args.trace) {
    const WindowedStats ws = Windowed(u.timed);
    metrics.Add("throughput_ops_s", ws.throughput_ops_s, "ops/s");
    metrics.Add("read_p50_us", ws.read_p50_us, "us");
    metrics.Add("read_p99_us", ws.read_p99_us, "us");
    metrics.Add("write_p50_us", ws.write_p50_us, "us");
    metrics.Add("write_p99_us", ws.write_p99_us, "us");
    metrics.Add("setup_s", Median(u.setup_s), "s");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Add("recover_s", Median(u.recover_s), "s");
    detail.Int("read_samples", u.timed.reads)
        .Int("write_samples", u.timed.writes)
        .Int("windows", ws.windows)
        .Int("min_read_samples_per_window", ws.min_reads)
        .Int("min_write_samples_per_window", ws.min_writes)
        .Num("whole_phase_throughput_ops_s", u.timed.Throughput())
        .Obj("per_window", Json()
                               .Nums("throughput_ops_s", ws.tput)
                               .Nums("read_p50_us", ws.r50)
                               .Nums("read_p99_us", ws.r99)
                               .Nums("write_p50_us", ws.w50)
                               .Nums("write_p99_us", ws.w99))
        .Num("timed_seconds", u.timed.elapsed_s)
        .Nums("setup_runs_s", u.setup_s)
        .Nums("recover_runs_s", u.recover_s)
        .Num("recovery_replayed_per_recovery", u.recovery_replayed);
  } else {
    TracedResult t = RunTraced(*spec, in, phase_s, args.spans_path, work,
                               u.timed.Throughput(), u.recovery_replayed,
                               checks);
    metrics = t.layers;
    attempted += t.phase.attempted;
    failed += t.phase.failed;
    detail.Obj("traced", t.detail);
  }
  fs::remove_all(work);
  std::error_code ec;
  fs::remove(".bench_work", ec);  // only if no other run is using it

  Json config;
  config.Int("replicas", kReplicas)
      .Str("strategy", "majority")
      .Int("shards_per_replica", u.resolved.shards)
      .Int("workers_per_replica", u.resolved.workers)
      .Str("transport", u.resolved.transport)
      .Str("fsync", spec->durable ? "group-commit(500us)" : "none")
      .Str("client", spec->client == ClientKind::kSync ? "sync" : "async")
      .Int("load_threads", spec->threads)
      .Int("window", spec->window)
      .Int("keys", spec->keys)
      .Num("write_share", spec->write_share)
      .Num("zipf_theta", spec->zipf_theta);
  Json host;
  host.Str("cpu", CpuModel())
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("build_type", PERFBENCH_BUILD_TYPE);
  Json checks_json;
  checks_json.Int("reads_checked", checks.reads_checked)
      .Int("scans_passed", checks.scans)
      .Int("violations", checks.violations)
      .Str("first_violation", checks.first);
  Json head;
  head.Str("workload", spec->name)
      .Int("seed", args.seed)
      .Num("seconds", args.seconds)
      .Int("trace", args.trace ? 1 : 0)
      .Obj("config", config)
      .Obj("host", host)
      .Obj("checks", checks_json)
      .Num("error_rate", Ratio(static_cast<double>(failed),
                               static_cast<double>(attempted)))
      .Obj("run", detail);
  std::cout << "detail " << head.str() << "\n";

  Json result;
  result.Bool("correct", checks.correct && failed == 0)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Obj("metrics", metrics.json());
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
