#include "stack.hpp"

#include "common/check.hpp"
#include "quorum/strategies.hpp"
#include "runtime/bus.hpp"
#include "runtime/sharding.hpp"

namespace perfbench {

using qcnt::runtime::AsyncQuorumClient;
using qcnt::runtime::NodeId;
using qcnt::runtime::QuorumClient;
namespace storage = qcnt::storage;

TracedStack::TracedStack(const StackOptions& options, SpanLog& log)
    : shards_(qcnt::runtime::DefaultShardsPerReplica()),
      max_clients_(options.max_clients) {
  // +1: the membership coordinator's client slot, as in the store.
  node_count_ = options.replicas + options.max_clients + 1;
  std::unique_ptr<qcnt::net::Transport> inner;
  if (options.tcp) {
    qcnt::net::TcpTransportOptions topts;
    topts.universe.resize(node_count_);
    std::vector<NodeId> local(node_count_);
    for (std::size_t i = 0; i < node_count_; ++i) {
      local[i] = static_cast<NodeId>(i);
    }
    auto tcp = std::make_unique<qcnt::net::TcpTransport>(std::move(topts),
                                                         std::move(local));
    tcp_ = tcp.get();
    inner = std::move(tcp);
  } else {
    inner = std::make_unique<qcnt::runtime::Bus>(node_count_);
  }
  transport_ = std::make_unique<TracingTransport>(
      std::move(inner), log, options.replicas, shards_,
      options.capture_frames);
  table_ = std::make_shared<qcnt::runtime::ConfigTable>(
      std::vector<qcnt::quorum::QuorumSystem>{qcnt::quorum::MajoritySystem(
          static_cast<qcnt::ReplicaId>(options.replicas))});

  for (std::size_t r = 0; r < options.replicas; ++r) {
    std::shared_ptr<storage::Manifest> manifest;
    std::shared_ptr<storage::GroupCommitCoordinator> gc;
    if (options.durability) {
      manifest = std::make_shared<storage::Manifest>(
          options.durability->directory + "/replica_" + std::to_string(r),
          shards_);
      if (options.durability->fsync == storage::FsyncPolicy::kGroupCommit &&
          options.durability->coordinate_group_commit) {
        storage::GroupCommitCoordinator::Options o;
        o.window = options.durability->group_commit_window;
        o.adaptive = options.durability->adaptive_commit_window;
        o.min_window = options.durability->commit_window_min;
        o.max_window = options.durability->commit_window_max;
        gc = std::make_shared<storage::GroupCommitCoordinator>(o);
        coordinators_.push_back(gc);
      }
    }
    const auto durability = options.durability;
    const auto replica = static_cast<std::uint32_t>(r);
    auto factory = [&log, durability, manifest, gc,
                    replica](std::size_t shard) -> std::unique_ptr<storage::Backend> {
      std::unique_ptr<storage::Backend> inner =
          durability ? storage::MakeDurableShardBackend(manifest, *durability,
                                                        shard, gc)
                     : storage::MakeMemoryBackend();
      return std::make_unique<TracingBackend>(
          std::move(inner), log, replica, static_cast<std::uint32_t>(shard));
    };
    replicas_.push_back(std::make_unique<qcnt::runtime::ReplicaServer>(
        *transport_, static_cast<NodeId>(r), shards_, factory,
        /*record_history=*/false, /*workers=*/0));
  }
}

TracedStack::~TracedStack() { Shutdown(); }

void TracedStack::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (auto& r : replicas_) r->Shutdown();
  transport_->CloseAll();
}

std::unique_ptr<QuorumClient> TracedStack::MakeClient() {
  QCNT_CHECK_MSG(next_client_ < max_clients_, "client limit reached");
  const auto id = static_cast<NodeId>(replicas_.size() + next_client_++);
  return std::make_unique<QuorumClient>(*transport_, id, table_, 0,
                                        QuorumClient::Options{});
}

std::unique_ptr<AsyncQuorumClient> TracedStack::MakeAsyncClient(
    AsyncQuorumClient::Options options) {
  QCNT_CHECK_MSG(next_client_ < max_clients_, "client limit reached");
  const auto id = static_cast<NodeId>(replicas_.size() + next_client_++);
  return std::make_unique<AsyncQuorumClient>(*transport_, id, table_, 0,
                                             options);
}

std::uint64_t TracedStack::CommitPasses() const {
  std::uint64_t n = 0;
  for (const auto& gc : coordinators_) n += gc->Passes();
  return n;
}

std::uint64_t TracedStack::MailboxHandoffs() {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < node_count_; ++i) {
    n += transport_->MailboxOf(static_cast<NodeId>(i)).Handoffs();
  }
  return n;
}

std::uint64_t TracedStack::MailboxWakeups() {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < node_count_; ++i) {
    n += transport_->MailboxOf(static_cast<NodeId>(i)).Wakeups();
  }
  return n;
}

}  // namespace perfbench
