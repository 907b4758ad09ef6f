// In-memory span log and span arithmetic for the traced run.
//
// A span is one timed call at a layer boundary, recorded by the
// benchmark's decorators (tracing.hpp) around calls into the program:
// Transport::Send (the bus or the wire) and Backend::ApplyWrite* /
// MaybeCompact (storage). Spans of one operation share its op id, carried
// in the span's op refs. Each recording thread appends to its own buffer
// with no locking; buffers are read only after every recording thread has
// been joined (the traced stack is torn down first).
//
// Span arithmetic works on closed-open [lo, hi) nanosecond intervals:
// Coverage merges an arbitrary set of (possibly overlapping) intervals
// into a sorted disjoint union with prefix sums, so "how much of [lo, hi)
// do these spans cover" is O(log n). A span's self time is its duration
// minus the part of it its child spans cover.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t NowNs();

enum class SpanKind : std::uint8_t {
  kSend = 0,          // Transport::Send; from/to = node ids
  kStorageAppend = 1, // Backend::ApplyWrite / ApplyWriteBatch; from/to =
                      // replica / shard, ref_count = records
  kStorageCompact = 2,// Backend::MaybeCompact (rotation, checkpoints)
};

const char* SpanName(SpanKind kind);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  /// kSend: index of the first op ref in the log's ref array; ref_count
  /// refs follow. kStorage*: unused / number of records.
  std::uint32_t ref_begin = 0;
  std::uint16_t ref_count = 0;
  SpanKind kind = SpanKind::kSend;
  /// kSend: the RtMessage::Kind sent.
  std::uint8_t msg_kind = 0;
};

/// An op ref packs the op id with the shard the op's key maps to on the
/// receiving replica: (op << 8) | shard.
inline std::uint64_t PackRef(std::uint64_t op, std::size_t shard) {
  return (op << 8) | (shard & 0xff);
}
inline std::uint64_t RefOp(std::uint64_t ref) { return ref >> 8; }
inline std::size_t RefShard(std::uint64_t ref) { return ref & 0xff; }

/// Per-thread span buffers with a global cap on recorded spans. Recording
/// is off until Start(); once the cap is reached Full() turns true and
/// further spans are counted as dropped.
class SpanLog {
 public:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::uint64_t> refs;
  };

  explicit SpanLog(std::size_t max_spans);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void Start() { recording_.store(true, std::memory_order_release); }
  void Stop() { recording_.store(false, std::memory_order_release); }
  bool Recording() const {
    return recording_.load(std::memory_order_acquire);
  }
  bool Full() const {
    return recorded_.load(std::memory_order_relaxed) >= max_spans_;
  }

  /// The calling thread's buffer, or nullptr once the cap is reached.
  Buffer* Reserve();
  /// Merge every thread's buffer into one span list; refs are rebased
  /// into `refs`. Only call once no thread records any more.
  std::vector<Span> Collect(std::vector<std::uint64_t>* refs) const;
  std::uint64_t Dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t max_spans_;
  const std::uint64_t id_;  // distinguishes logs in the thread-local slot
  std::atomic<bool> recording_{false};
  std::atomic<std::size_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// Sorted disjoint union of a set of intervals, with prefix sums.
class Coverage {
 public:
  Coverage() = default;
  explicit Coverage(std::vector<Interval> intervals);
  /// Length of [lo, hi) covered by the union.
  std::int64_t CoveredWithin(std::int64_t lo, std::int64_t hi) const;

 private:
  std::vector<Interval> merged_;
  std::vector<std::int64_t> prefix_;  // prefix_[i] = length of merged_[0..i]
};

/// Self time of `parent`: its duration minus the part its children cover.
std::int64_t SelfTime(Interval parent, const Coverage& children);

/// Length of the union of `intervals` (reorders them).
std::int64_t UnionLength(std::vector<Interval>& intervals);

/// Write spans as tab-separated text: name, start_ns, end_ns, from, to,
/// msg_kind, op ids (comma-separated). Returns false on an I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<std::uint64_t>& refs);

}  // namespace perfbench
