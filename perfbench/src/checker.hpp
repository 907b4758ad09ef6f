// Correctness model for a benchmark run.
//
// Every key is owned by one load thread, which alone writes it; a written
// value is unique across the run, so a read's value names the write it
// observed. The checker flags:
//   * a read of a key the reading thread owns that does not return exactly
//     the last write that thread issued to the key before the read (the
//     clients serialize same-key ops in submission order, so that write
//     has been acked by the time the read runs);
//   * a read whose (version, value) no writer issued, or whose version is
//     older than the last write acked before the read began;
//   * a quorum scan of a key that does not return the model's last acked
//     (version, value): a lost or regressed write.
// Reads are checked as they complete. A read of another thread's key is
// checked against that key's acked writes; one that returned a write whose
// ack the owner has not seen yet is kept and checked by VerifyHistory()
// once the load has stopped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Checker {
 public:
  /// What a read must satisfy, fixed when the read is issued.
  struct ReadTicket {
    std::uint64_t floor = 0;     // version of the last acked write
    std::int64_t expected = 0;   // own keys: value of the last issued write
    bool own = false;
  };

  /// `shared_reads`: some thread reads keys it does not own, so each key's
  /// acked writes are kept to check those reads against.
  Checker(std::size_t keys, std::size_t threads, bool shared_reads);

  std::size_t Owner(std::uint32_t key) const { return key % threads_.size(); }

  // --- Called by load thread `thread` (which owns the keys it writes). ---
  /// A fresh value for a write by `thread`, unique across the run.
  std::int64_t IssueWrite(std::size_t thread, std::uint32_t key);
  void OnWriteAcked(std::uint32_t key, std::uint64_t version,
                    std::int64_t value);
  ReadTicket IssueRead(std::size_t thread, std::uint32_t key) const;
  void OnReadDone(std::size_t thread, std::uint32_t key,
                  const ReadTicket& ticket, std::uint64_t version,
                  std::int64_t value);
  /// An op that did not complete with a quorum (the run's results can no
  /// longer be checked exactly, so this is a violation too).
  void OnFailure(const std::string& what);

  // --- Called once the load has stopped. ---
  /// Check the reads kept because their write was not acked yet when they
  /// completed; returns the number of new violations.
  std::uint64_t VerifyHistory();
  /// Compare a quorum read of `key` with the model's last acked write.
  void CheckScan(std::uint32_t key, std::uint64_t version, std::int64_t value);
  bool Ok() const { return violations_.load() == 0; }
  std::uint64_t Violations() const { return violations_.load(); }
  std::string FirstViolation() const;
  std::uint64_t ReadsChecked() const;

 private:
  struct Acked {
    std::uint64_t version;
    std::int64_t value;
  };
  struct KeyState {
    std::atomic<std::uint64_t> acked_version{0};  // read by any thread
    std::int64_t acked_value = 0;                 // owner thread only
    std::int64_t issued_value = 0;                // owner thread only
    std::mutex mu;                 // guards history
    std::vector<Acked> history;    // acked writes, ascending versions
  };
  struct ReadRec {
    std::uint32_t key;
    std::uint64_t version;
    std::int64_t value;
  };
  struct ThreadState {
    std::int64_t next_seq = 1;
    std::uint64_t reads_checked = 0;
    std::vector<ReadRec> unacked_reads;
  };

  void Violation(const std::string& what);
  /// Check a read of another thread's key against the key's acked writes.
  /// False when the write it returned has not been acked yet.
  bool CheckShared(const ReadRec& r);

  std::unique_ptr<KeyState[]> keys_;
  const bool keep_writes_;
  std::vector<ThreadState> threads_;
  std::atomic<std::uint64_t> violations_{0};
  mutable std::mutex first_mu_;
  std::string first_;
};

}  // namespace perfbench
