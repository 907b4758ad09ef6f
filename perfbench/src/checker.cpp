#include "checker.hpp"

#include <algorithm>

namespace perfbench {

Checker::Checker(std::size_t keys, std::size_t threads, bool shared_reads)
    : keys_(std::make_unique<KeyState[]>(keys)),
      keep_writes_(shared_reads),
      threads_(threads) {}

std::int64_t Checker::IssueWrite(std::size_t thread, std::uint32_t key) {
  ThreadState& t = threads_[thread];
  // Thread in the top bits, a per-thread sequence below: unique per write.
  const std::int64_t value =
      (static_cast<std::int64_t>(thread + 1) << 40) | t.next_seq++;
  keys_[key].issued_value = value;
  return value;
}

void Checker::OnWriteAcked(std::uint32_t key, std::uint64_t version,
                           std::int64_t value) {
  KeyState& k = keys_[key];
  if (version <= k.acked_version.load(std::memory_order_relaxed)) {
    Violation("write to " + std::to_string(key) + " acked at version " +
              std::to_string(version) + ", not above the previous ack");
  }
  if (keep_writes_) {
    std::lock_guard<std::mutex> lock(k.mu);
    k.history.push_back(Acked{version, value});
  }
  k.acked_value = value;
  k.acked_version.store(version, std::memory_order_release);
}

Checker::ReadTicket Checker::IssueRead(std::size_t thread,
                                       std::uint32_t key) const {
  const KeyState& k = keys_[key];
  ReadTicket t;
  t.floor = k.acked_version.load(std::memory_order_acquire);
  t.own = Owner(key) == thread;
  if (t.own) t.expected = k.issued_value;
  return t;
}

void Checker::OnReadDone(std::size_t thread, std::uint32_t key,
                         const ReadTicket& ticket, std::uint64_t version,
                         std::int64_t value) {
  ThreadState& t = threads_[thread];
  if (version < ticket.floor) {
    Violation("stale read of " + std::to_string(key) + ": version " +
              std::to_string(version) + " below acked " +
              std::to_string(ticket.floor));
  }
  if (ticket.own) {
    ++t.reads_checked;
    if (value != ticket.expected) {
      Violation("own-key read of " + std::to_string(key) + " returned " +
                std::to_string(value) + ", last write was " +
                std::to_string(ticket.expected));
    }
    return;
  }
  const ReadRec r{key, version, value};
  if (CheckShared(r)) {
    ++t.reads_checked;
  } else {
    t.unacked_reads.push_back(r);
  }
}

bool Checker::CheckShared(const ReadRec& r) {
  if (r.version == 0 && r.value == 0) return true;  // the initial state
  KeyState& k = keys_[r.key];
  std::lock_guard<std::mutex> lock(k.mu);
  const auto it = std::lower_bound(
      k.history.begin(), k.history.end(), r.version,
      [](const Acked& a, std::uint64_t v) { return a.version < v; });
  if (it == k.history.end() || it->version != r.version) return false;
  if (it->value != r.value) {
    Violation("read of " + std::to_string(r.key) + " returned value " +
              std::to_string(r.value) + " at version " +
              std::to_string(r.version) + ", which the writer acked with " +
              std::to_string(it->value));
  }
  return true;
}

void Checker::OnFailure(const std::string& what) {
  Violation("operation failed: " + what);
}

std::uint64_t Checker::VerifyHistory() {
  const std::uint64_t before = violations_.load();
  for (ThreadState& t : threads_) {
    for (const ReadRec& r : t.unacked_reads) {
      ++t.reads_checked;
      if (!CheckShared(r)) {
        Violation("read of " + std::to_string(r.key) + " returned (version " +
                  std::to_string(r.version) + ", value " +
                  std::to_string(r.value) + ") that no acked write issued");
      }
    }
    t.unacked_reads.clear();
  }
  return violations_.load() - before;
}

void Checker::CheckScan(std::uint32_t key, std::uint64_t version,
                        std::int64_t value) {
  const KeyState& k = keys_[key];
  const std::uint64_t want = k.acked_version.load(std::memory_order_acquire);
  if (version != want || value != k.acked_value) {
    Violation("scan of " + std::to_string(key) + " found (version " +
              std::to_string(version) + ", value " + std::to_string(value) +
              "), model has (" + std::to_string(want) + ", " +
              std::to_string(k.acked_value) + ")");
  }
}

std::string Checker::FirstViolation() const {
  std::lock_guard<std::mutex> lock(first_mu_);
  return first_;
}

std::uint64_t Checker::ReadsChecked() const {
  std::uint64_t n = 0;
  for (const ThreadState& t : threads_) n += t.reads_checked;
  return n;
}

void Checker::Violation(const std::string& what) {
  if (violations_.fetch_add(1) == 0) {
    std::lock_guard<std::mutex> lock(first_mu_);
    first_ = what;
  }
}

}  // namespace perfbench
