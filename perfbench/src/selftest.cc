// Self-test of the harness arithmetic: the percentile rule (median plus the
// highest percentile with at least ten samples beyond it) and span self
// time (duration minus the part child spans cover).

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> Iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void PercentileRule() {
  using perfbench::Summarize;
  using perfbench::TailLevel;
  Expect(TailLevel(99) == 0.0, "99 samples: p90 has only 9 beyond");
  Expect(TailLevel(100) == 0.9, "100 samples: p90");
  Expect(TailLevel(999) == 0.9, "999 samples: p99 has only 9 beyond");
  Expect(TailLevel(1000) == 0.99, "1000 samples: p99");
  Expect(TailLevel(10000) == 0.999, "10000 samples: p99.9");

  const perfbench::Summary s = Summarize(Iota(100));
  Expect(s.count == 100, "count");
  Expect(s.p50 == 50.0, "nearest-rank median of 1..100 is 50");
  Expect(s.p90 == 90.0, "nearest-rank p90 of 1..100 is 90");
  Expect(s.tail == 90.0, "tail of 100 samples is p90");
  Expect(std::fabs(s.mean - 50.5) < 1e-12, "mean");

  // Ten samples strictly beyond the reported tail, order-independent.
  std::vector<double> shuffled = Iota(1000);
  std::swap(shuffled[0], shuffled[999]);
  const perfbench::Summary t = Summarize(shuffled);
  Expect(t.tail_level == 0.99 && t.tail == 990.0, "p99 of 1..1000 is 990");
  std::size_t beyond = 0;
  for (const double v : shuffled) beyond += v > t.tail ? 1 : 0;
  Expect(beyond == perfbench::kTailSamples, "exactly ten beyond p99");
  Expect(Summarize({}).count == 0 && Summarize({}).p50 == 0.0, "empty");
  Expect(Summarize({7.0}).p50 == 7.0, "single sample");
}

void SelfTime() {
  using perfbench::Interval;
  using perfbench::SelfTime;
  Expect(SelfTime({0, 100}, {}) == 100, "no children");
  Expect(SelfTime({0, 100}, {{10, 20}, {30, 50}}) == 70, "two children");
  Expect(SelfTime({0, 100}, {{30, 50}, {10, 20}}) == 70, "unsorted children");
  Expect(SelfTime({0, 100}, {{10, 40}, {30, 50}}) == 60,
         "overlap counted once");
  Expect(SelfTime({0, 100}, {{10, 40}, {20, 30}}) == 70, "nested child");
  Expect(SelfTime({10, 100}, {{0, 20}, {90, 120}}) == 70,
         "children clipped to the parent");
  Expect(SelfTime({0, 100}, {{0, 100}}) == 0, "fully covered");

  // The recorder folds the same arithmetic per operation: op 0..100 with a
  // handle 10..60 (holding an iterate 20..50) and a drain 70..90.
  perfbench::SpanRecorder recorder(/*keep_raw_ops=*/1);
  recorder.Begin(perfbench::SpanName::kVaoIterate, 0);  // outside an op
  recorder.End(5);
  recorder.BeginOp(0, 0);
  recorder.Begin(perfbench::SpanName::kServerHandle, 10);
  recorder.Begin(perfbench::SpanName::kVaoIterate, 20);
  recorder.End(50);
  recorder.End(60);
  recorder.Begin(perfbench::SpanName::kServerDrain, 70);
  recorder.End(90);
  recorder.EndOp(100);
  Expect(recorder.ops().size() == 1, "one op");
  const perfbench::OpSpans& op = recorder.ops()[0];
  const auto at = [](perfbench::SpanName n) { return static_cast<int>(n); };
  Expect(op.total_ns[at(perfbench::SpanName::kOp)] == 100, "op total");
  Expect(op.self_ns[at(perfbench::SpanName::kOp)] == 30, "op self");
  Expect(op.self_ns[at(perfbench::SpanName::kServerHandle)] == 20,
         "handle self excludes the iterate");
  Expect(op.total_ns[at(perfbench::SpanName::kVaoIterate)] == 30,
         "span outside an op is not recorded");
  Expect(op.self_ns[at(perfbench::SpanName::kServerDrain)] == 20,
         "leaf self time is its duration");
}

}  // namespace

int main() {
  PercentileRule();
  SelfTime();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
