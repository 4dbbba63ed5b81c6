// In-memory span recorder of the perfbench harness.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into each layer of vaolib (the server's HandleBytes/DrainOutput, the
// variable-accuracy function boundary). Every span of one operation shares
// the operation's id. Per-operation totals and self times (span duration
// minus the part its child spans cover) are folded as spans close, so a
// long run keeps O(operations) memory; raw spans are kept only for the
// first few operations and written out when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "stats.h"

namespace perfbench {

enum class SpanName : int {
  kOp = 0,        ///< one whole operation (tick, churn round or query)
  kServerHandle,  ///< StandingQueryServer::HandleBytes of the TICK frame
  kServerDrain,   ///< DrainOutput + frame decoding, every session
  kServerChurn,   ///< WITHDRAW + REGISTER sent and both replies decoded
  kVaoInvoke,     ///< VariableAccuracyFunction::Invoke
  kVaoIterate,    ///< ResultObject::Iterate
};
inline constexpr int kNumSpanNames = 6;

const char* SpanNameText(SpanName name);

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-operation span totals, indexed by SpanName.
struct OpSpans {
  std::array<std::int64_t, kNumSpanNames> total_ns{};
  std::array<std::int64_t, kNumSpanNames> self_ns{};
};

class SpanRecorder {
 public:
  /// Raw spans of operations with id < \p keep_raw_ops are kept for
  /// WriteTsv(); later operations only contribute to their totals.
  explicit SpanRecorder(std::size_t keep_raw_ops)
      : keep_raw_ops_(keep_raw_ops) {}

  /// Starts operation \p op (opens its kOp span at \p now).
  void BeginOp(std::uint64_t op, std::int64_t now);
  /// Closes the kOp span; any span still open is a harness bug.
  void EndOp(std::int64_t now);

  /// Spans outside an operation (set-up, warm-up) are not recorded.
  void Begin(SpanName name, std::int64_t now);
  void End(std::int64_t now);

  /// Totals of every finished operation, in order.
  const std::vector<OpSpans>& ops() const { return ops_; }

  /// One line per kept span: op, span index, parent index (-1 for the
  /// operation), name, start and end in ns relative to the op start.
  void WriteTsv(std::ostream& os) const;

 private:
  struct Open {
    SpanName name;
    std::int64_t start;
    std::int32_t raw_index;  ///< -1 when raw spans are not kept
    std::vector<Interval> children;
  };
  struct Raw {
    std::uint64_t op;
    std::int32_t parent;
    SpanName name;
    std::int64_t start;
    std::int64_t end;
  };

  std::size_t keep_raw_ops_;
  std::uint64_t op_ = 0;
  bool in_op_ = false;
  std::vector<Open> stack_;
  OpSpans current_;
  std::vector<OpSpans> ops_;
  std::vector<Raw> raw_;
};

/// Records one span on \p recorder (null = tracing off) for its scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanName name) : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(name, NowNs());
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
