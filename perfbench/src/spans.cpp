#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSend:
      return "transport.send";
    case SpanKind::kStorageAppend:
      return "storage.append";
    case SpanKind::kStorageCompact:
      return "storage.compact";
  }
  return "unknown";
}

namespace {
struct ThreadSlot {
  std::uint64_t owner = 0;
  SpanLog::Buffer* buffer = nullptr;
};
thread_local ThreadSlot tls_slot;
std::atomic<std::uint64_t> next_log_id{1};
}  // namespace

SpanLog::SpanLog(std::size_t max_spans)
    : max_spans_(max_spans), id_(next_log_id.fetch_add(1)) {}

SpanLog::Buffer* SpanLog::Reserve() {
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (tls_slot.owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    tls_slot.owner = id_;
    tls_slot.buffer = buffers_.back().get();
  }
  return tls_slot.buffer;
}

std::vector<Span> SpanLog::Collect(std::vector<std::uint64_t>* refs) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  refs->clear();
  for (const auto& b : buffers_) {
    const auto base = static_cast<std::uint32_t>(refs->size());
    refs->insert(refs->end(), b->refs.begin(), b->refs.end());
    for (Span s : b->spans) {
      if (s.kind == SpanKind::kSend) s.ref_begin += base;
      out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

Coverage::Coverage(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  for (const Interval& iv : intervals) {
    if (iv.hi <= iv.lo) continue;
    if (!merged_.empty() && iv.lo <= merged_.back().hi) {
      merged_.back().hi = std::max(merged_.back().hi, iv.hi);
    } else {
      merged_.push_back(iv);
    }
  }
  prefix_.reserve(merged_.size());
  std::int64_t sum = 0;
  for (const Interval& iv : merged_) {
    sum += iv.hi - iv.lo;
    prefix_.push_back(sum);
  }
}

std::int64_t Coverage::CoveredWithin(std::int64_t lo, std::int64_t hi) const {
  if (hi <= lo || merged_.empty()) return 0;
  // First merged interval ending after lo; first starting at or after hi.
  const auto a = static_cast<std::size_t>(
      std::upper_bound(merged_.begin(), merged_.end(), lo,
                       [](std::int64_t v, const Interval& iv) {
                         return v < iv.hi;
                       }) -
      merged_.begin());
  const auto b = static_cast<std::size_t>(
      std::lower_bound(merged_.begin(), merged_.end(), hi,
                       [](const Interval& iv, std::int64_t v) {
                         return iv.lo < v;
                       }) -
      merged_.begin());
  if (a >= b) return 0;
  std::int64_t covered = prefix_[b - 1] - (a == 0 ? 0 : prefix_[a - 1]);
  if (merged_[a].lo < lo) covered -= lo - merged_[a].lo;
  if (merged_[b - 1].hi > hi) covered -= merged_[b - 1].hi - hi;
  return covered;
}

std::int64_t SelfTime(Interval parent, const Coverage& children) {
  if (parent.hi <= parent.lo) return 0;
  return (parent.hi - parent.lo) -
         children.CoveredWithin(parent.lo, parent.hi);
}

std::int64_t UnionLength(std::vector<Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::int64_t total = 0;
  std::int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.hi <= iv.lo) continue;
    if (open && iv.lo <= cur_hi) {
      cur_hi = std::max(cur_hi, iv.hi);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = iv.lo;
    cur_hi = iv.hi;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<std::uint64_t>& refs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "# name\tstart_ns\tend_ns\tfrom\tto\tmsg_kind\tops\n";
  for (const Span& s : spans) {
    out << SpanName(s.kind) << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << s.from << '\t' << s.to << '\t' << int{s.msg_kind} << '\t';
    if (s.kind == SpanKind::kSend) {
      for (std::uint32_t i = 0; i < s.ref_count; ++i) {
        if (i > 0) out << ',';
        out << RefOp(refs[s.ref_begin + i]);
      }
    } else {
      out << '-';
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
