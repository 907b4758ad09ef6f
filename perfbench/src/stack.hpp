// The traced stack: the same serving path ReplicatedStore assembles
// (runtime/store.cpp), built here from the public constructors so the
// benchmark can put its decorators between the layers:
//
//   clients ─▶ TracingTransport ─▶ Bus | net::TcpTransport ─▶ ReplicaServer
//                                            shard backends ◀─ TracingBackend
//
// Node ids, shard and worker resolution, the per-replica Manifest and
// GroupCommitCoordinator, and the shard backends are those the store
// would build for the same options.
#pragma once

#include <memory>
#include <optional>

#include "net/tcp_transport.hpp"
#include "runtime/async_client.hpp"
#include "runtime/client.hpp"
#include "runtime/config_table.hpp"
#include "runtime/replica_server.hpp"
#include "storage/backend.hpp"
#include "tracing.hpp"

namespace perfbench {

struct StackOptions {
  std::size_t replicas = 5;
  std::size_t max_clients = 16;
  bool tcp = false;
  std::optional<qcnt::storage::DurabilityOptions> durability;
  /// Messages copied for the codec measurements.
  std::size_t capture_frames = 0;
};

class TracedStack {
 public:
  TracedStack(const StackOptions& options, SpanLog& log);
  ~TracedStack();
  TracedStack(const TracedStack&) = delete;
  TracedStack& operator=(const TracedStack&) = delete;

  std::unique_ptr<qcnt::runtime::QuorumClient> MakeClient();
  std::unique_ptr<qcnt::runtime::AsyncQuorumClient> MakeAsyncClient(
      qcnt::runtime::AsyncQuorumClient::Options options);

  TracingTransport& Transport() { return *transport_; }
  /// The wire transport, or nullptr on the Bus.
  qcnt::net::TcpTransport* Tcp() { return tcp_; }
  const qcnt::runtime::ConfigTable& Table() const { return *table_; }
  std::size_t Replicas() const { return replicas_.size(); }
  qcnt::runtime::ReplicaServer& Replica(std::size_t r) { return *replicas_[r]; }
  /// Fsync passes of every replica's group-commit coordinator.
  std::uint64_t CommitPasses() const;

  /// Mailbox deliveries summed over every node of the transport.
  std::uint64_t MailboxHandoffs();
  std::uint64_t MailboxWakeups();

  /// Stop every replica thread and close the transport; afterwards no
  /// thread records spans.
  void Shutdown();

 private:
  std::size_t shards_ = 1;
  std::size_t node_count_ = 0;
  std::size_t next_client_ = 0;
  std::size_t max_clients_ = 0;
  std::unique_ptr<TracingTransport> transport_;
  qcnt::net::TcpTransport* tcp_ = nullptr;
  std::shared_ptr<qcnt::runtime::ConfigTable> table_;
  std::vector<std::shared_ptr<qcnt::storage::GroupCommitCoordinator>>
      coordinators_;
  std::vector<std::unique_ptr<qcnt::runtime::ReplicaServer>> replicas_;
  bool shut_down_ = false;
};

}  // namespace perfbench
