// Benchmark-side decorators that record spans around calls into the
// program: one over net::Transport (every message a client or replica
// sends) and one over storage::Backend (every WAL append and every
// compaction step of one replica shard). They change no behaviour: each
// call is forwarded unchanged to the wrapped object, and nothing is
// recorded while the span log is not recording.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "net/codec.hpp"
#include "net/transport.hpp"
#include "spans.hpp"
#include "storage/backend.hpp"

namespace perfbench {

class TracingTransport final : public qcnt::net::Transport {
 public:
  /// `replicas`: node ids [0, replicas) are replicas, the rest clients.
  /// `shards`: shard count per replica, used to tag each op ref sent to a
  /// replica with the shard its key maps to. The first `capture` messages
  /// sent while recording are copied as wire frames for the codec
  /// measurements.
  TracingTransport(std::unique_ptr<qcnt::net::Transport> inner, SpanLog& log,
                   std::size_t replicas, std::size_t shards,
                   std::size_t capture);

  /// Frames captured so far. Only read once no thread sends any more.
  const std::vector<qcnt::net::WireFrame>& Captured() const {
    return captured_;
  }

  std::size_t NodeCount() const override { return inner_->NodeCount(); }
  qcnt::net::Mailbox& MailboxOf(qcnt::runtime::NodeId node) override {
    return inner_->MailboxOf(node);
  }
  bool Send(qcnt::runtime::NodeId from, qcnt::runtime::NodeId to,
            qcnt::runtime::RtMessage msg) override;
  void Crash(qcnt::runtime::NodeId node) override { inner_->Crash(node); }
  void Recover(qcnt::runtime::NodeId node) override { inner_->Recover(node); }
  bool IsUp(qcnt::runtime::NodeId node) const override {
    return inner_->IsUp(node);
  }
  void SetCrashHook(qcnt::runtime::NodeId node,
                    std::function<void()> hook) override {
    inner_->SetCrashHook(node, std::move(hook));
  }
  void SetRecoverHook(qcnt::runtime::NodeId node,
                      std::function<void()> hook) override {
    inner_->SetRecoverHook(node, std::move(hook));
  }
  void CloseAll() override { inner_->CloseAll(); }
  std::uint64_t MessagesSent() const override {
    return inner_->MessagesSent();
  }
  std::uint64_t MessagesDropped() const override {
    return inner_->MessagesDropped();
  }
  const char* Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<qcnt::net::Transport> inner_;
  SpanLog& log_;
  const std::size_t replicas_;
  const std::size_t shards_;
  const std::size_t capture_;
  std::atomic<std::size_t> capture_claimed_{0};
  std::mutex capture_mu_;
  std::vector<qcnt::net::WireFrame> captured_;
};

class TracingBackend final : public qcnt::storage::Backend {
 public:
  TracingBackend(std::unique_ptr<qcnt::storage::Backend> inner, SpanLog& log,
                 std::uint32_t replica, std::uint32_t shard)
      : inner_(std::move(inner)), log_(log), replica_(replica), shard_(shard) {}

  bool Durable() const override { return inner_->Durable(); }
  qcnt::storage::Image Recover() override { return inner_->Recover(); }
  void ApplyWrite(const std::string& key, std::uint64_t version,
                  std::int64_t value) override;
  void ApplyWriteBatch(
      const std::vector<qcnt::storage::WalRecord>& records) override;
  void ApplyConfig(std::uint64_t generation,
                   std::uint32_t config_id) override {
    inner_->ApplyConfig(generation, config_id);
  }
  void MaybeCompact(qcnt::storage::Image& image) override;
  void ForceCheckpoint(qcnt::storage::Image& image) override {
    inner_->ForceCheckpoint(image);
  }
  bool Lookup(const std::string& key, qcnt::storage::Versioned* out) override {
    return inner_->Lookup(key, out);
  }
  void ScanAbove(const std::string& cursor, std::size_t limit,
                 const std::function<void(const std::string&,
                                          const qcnt::storage::Versioned&)>&
                     fn) override {
    inner_->ScanAbove(cursor, limit, fn);
  }
  void ScanAll(const std::function<void(const std::string&,
                                        const qcnt::storage::Versioned&)>& fn)
      override {
    inner_->ScanAll(fn);
  }
  void OnCrash() override { inner_->OnCrash(); }
  qcnt::storage::StorageStats Stats() const override {
    return inner_->Stats();
  }

 private:
  void Record(SpanKind kind, std::int64_t start, std::size_t records);

  std::unique_ptr<qcnt::storage::Backend> inner_;
  SpanLog& log_;
  const std::uint32_t replica_;
  const std::uint32_t shard_;
};

}  // namespace perfbench
