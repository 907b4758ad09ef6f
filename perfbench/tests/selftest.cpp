// The benchmark's own test: the checker must flag injected violations and
// pass a clean history, and the span arithmetic must compute self time
// and coverage exactly on hand-built span sets.
//
//   perfbench_selftest        (exit 0 = pass; or: python3 perfbench/run.py --self-test)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "checker.hpp"
#include "layers.hpp"
#include "runtime/message.hpp"
#include "spans.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using perfbench::Checker;
using perfbench::Coverage;
using perfbench::Interval;
using perfbench::Span;
using perfbench::SpanKind;
using Kind = qcnt::runtime::RtMessage::Kind;

/// Thread 0 owns even keys, thread 1 odd keys. Key 0 gets two acked
/// writes: versions 1 and 2.
struct History {
  Checker c{4, 2, /*shared_reads=*/true};
  std::int64_t v1 = 0, v2 = 0;
  History() {
    v1 = c.IssueWrite(0, 0);
    c.OnWriteAcked(0, 1, v1);
    v2 = c.IssueWrite(0, 0);
    c.OnWriteAcked(0, 2, v2);
  }
};

void CleanHistoryPasses() {
  History h;
  auto own = h.c.IssueRead(0, 0);
  h.c.OnReadDone(0, 0, own, 2, h.v2);
  auto other = h.c.IssueRead(1, 0);
  h.c.OnReadDone(1, 0, other, 2, h.v2);
  EXPECT(h.c.VerifyHistory() == 0);
  h.c.CheckScan(0, 2, h.v2);
  EXPECT(h.c.Ok());
  EXPECT(h.c.ReadsChecked() == 2);
}

void OwnKeyStaleReadFlagged() {
  History h;
  auto own = h.c.IssueRead(0, 0);
  h.c.OnReadDone(0, 0, own, 1, h.v1);  // the older write
  EXPECT(!h.c.Ok());
}

void SharedStaleReadFlagged() {
  History h;
  // Thread 1 starts its read after version 2 was acked; returning the
  // version-1 write is stale even though some writer issued it.
  auto other = h.c.IssueRead(1, 0);
  h.c.OnReadDone(1, 0, other, 1, h.v1);
  h.c.VerifyHistory();
  EXPECT(!h.c.Ok());
}

void UnissuedValueFlagged() {
  History h;
  auto other = h.c.IssueRead(1, 0);
  h.c.OnReadDone(1, 0, other, 2, 12345);  // the writer acked v2 at version 2
  EXPECT(!h.c.Ok());
}

void UnackedWriteCheckedAtTheEnd() {
  // A read may return a write whose ack its owner has not seen yet; it is
  // checked once the load stops: fine if the write was acked by then, a
  // violation if no acked write matches.
  History h;
  const std::int64_t v3 = h.c.IssueWrite(0, 0);
  auto other = h.c.IssueRead(1, 0);
  h.c.OnReadDone(1, 0, other, 3, v3);
  auto phantom = h.c.IssueRead(1, 0);
  h.c.OnReadDone(1, 0, phantom, 4, 777);
  EXPECT(h.c.Ok());
  h.c.OnWriteAcked(0, 3, v3);
  EXPECT(h.c.VerifyHistory() == 1);
  EXPECT(h.c.Violations() == 1);
  EXPECT(h.c.ReadsChecked() == 2);
}

void LostWriteFlagged() {
  History h;
  h.c.CheckScan(0, 1, h.v1);  // the scan still sees version 1
  EXPECT(!h.c.Ok());
  History g;
  g.c.CheckScan(2, 0, 0);  // never-written key at its initial state
  EXPECT(g.c.Ok());
}

void SelfTimeOnHandBuiltSpans() {
  // Parent [0, 100) with overlapping children, some reaching outside it:
  // covered = [0,2) + [10,30) + [90,100) = 32.
  const Coverage children({{10, 20}, {15, 30}, {90, 120}, {-5, 2}, {40, 40}});
  EXPECT(perfbench::SelfTime({0, 100}, children) == 68);
  EXPECT(children.CoveredWithin(0, 100) == 32);
  EXPECT(children.CoveredWithin(12, 18) == 6);
  EXPECT(children.CoveredWithin(30, 90) == 0);
  // A child covering the whole parent leaves no self time.
  EXPECT(perfbench::SelfTime({95, 110}, children) == 0);
  // No children: self time is the duration.
  EXPECT(perfbench::SelfTime({5, 9}, Coverage()) == 4);

  std::vector<Interval> ivs{{0, 10}, {5, 15}, {20, 25}, {25, 30}, {3, 4}};
  EXPECT(perfbench::UnionLength(ivs) == 25);
}

Span Send(std::uint32_t from, std::uint32_t to, Kind kind, std::int64_t lo,
          std::int64_t hi, std::uint32_t ref_begin, std::uint16_t refs) {
  Span s;
  s.kind = SpanKind::kSend;
  s.from = from;
  s.to = to;
  s.msg_kind = static_cast<std::uint8_t>(kind);
  s.start_ns = lo;
  s.end_ns = hi;
  s.ref_begin = ref_begin;
  s.ref_count = refs;
  return s;
}

void ReplicaServiceAndCoverage() {
  // Client 5 reads op 8 (shard 1) from replicas 0 and 1. Replica 0 spends
  // [120, 150) of its visit [110, 200) in storage on shard 1, and a
  // storage span on shard 0 must not count. Replica 1's visit is
  // [110, 160).
  std::vector<std::uint64_t> refs{perfbench::PackRef(8, 1),
                                  perfbench::PackRef(8, 0)};
  std::vector<Span> spans;
  spans.push_back(Send(5, 0, Kind::kReadReq, 100, 110, 0, 1));
  spans.push_back(Send(5, 1, Kind::kReadReq, 100, 110, 0, 1));
  Span st;
  st.kind = SpanKind::kStorageAppend;
  st.from = 0;
  st.to = 1;
  st.start_ns = 120;
  st.end_ns = 150;
  spans.push_back(st);
  st.to = 0;
  st.start_ns = 160;
  st.end_ns = 190;
  spans.push_back(st);
  spans.push_back(Send(0, 5, Kind::kReadResp, 200, 204, 1, 1));
  spans.push_back(Send(1, 5, Kind::kReadResp, 160, 170, 1, 1));
  const perfbench::SpanAnalysis a =
      perfbench::AnalyzeSpans(spans, refs, /*replicas=*/5, /*sample=*/4);
  EXPECT(a.visits == 2);
  // Service self time: (90 - 30) and 50 ns → mean 55 ns.
  EXPECT(a.replica_service_us > 0.054999 && a.replica_service_us < 0.055001);
  EXPECT(a.ops == 1);
  // The op's spans cover [100, 204): 104 ns.
  EXPECT(a.covered_us_per_op > 0.103999 && a.covered_us_per_op < 0.104001);
  EXPECT(a.sends == 4);
  EXPECT(a.appends == 2);
}

}  // namespace

int main() {
  CleanHistoryPasses();
  OwnKeyStaleReadFlagged();
  SharedStaleReadFlagged();
  UnissuedValueFlagged();
  UnackedWriteCheckedAtTheEnd();
  LostWriteFlagged();
  SelfTimeOnHandBuiltSpans();
  ReplicaServiceAndCoverage();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
