#include "trace.h"

#include <utility>

namespace perfbench {

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kOp:
      return "op";
    case SpanName::kServerHandle:
      return "server.handle";
    case SpanName::kServerDrain:
      return "server.drain";
    case SpanName::kServerChurn:
      return "server.churn";
    case SpanName::kVaoInvoke:
      return "vao.invoke";
    case SpanName::kVaoIterate:
      return "vao.iterate";
  }
  return "?";
}

void SpanRecorder::BeginOp(std::uint64_t op, std::int64_t now) {
  op_ = op;
  current_ = OpSpans{};
  stack_.clear();
  in_op_ = true;
  Begin(SpanName::kOp, now);
}

void SpanRecorder::EndOp(std::int64_t now) {
  End(now);
  in_op_ = false;
  ops_.push_back(current_);
}

void SpanRecorder::Begin(SpanName name, std::int64_t now) {
  if (!in_op_) return;
  std::int32_t raw_index = -1;
  if (op_ < keep_raw_ops_) {
    raw_index = static_cast<std::int32_t>(raw_.size());
    const std::int32_t parent =
        stack_.empty() ? -1 : stack_.back().raw_index;
    raw_.push_back(Raw{op_, parent, name, now, now});
  }
  stack_.push_back(Open{name, now, raw_index, {}});
}

void SpanRecorder::End(std::int64_t now) {
  if (!in_op_) return;
  Open open = std::move(stack_.back());
  stack_.pop_back();
  const Interval interval{open.start, now};
  const int slot = static_cast<int>(open.name);
  current_.total_ns[slot] += now - open.start;
  current_.self_ns[slot] += SelfTime(interval, std::move(open.children));
  if (open.raw_index >= 0) raw_[open.raw_index].end = now;
  if (!stack_.empty()) stack_.back().children.push_back(interval);
}

void SpanRecorder::WriteTsv(std::ostream& os) const {
  os << "op\tspan\tparent\tname\tstart_ns\tend_ns\n";
  std::uint64_t op = ~0ULL;
  std::int64_t origin = 0;
  std::int32_t first_of_op = 0;
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const Raw& span = raw_[i];
    if (span.op != op) {
      op = span.op;
      origin = span.start;
      first_of_op = static_cast<std::int32_t>(i);
    }
    os << span.op << '\t' << static_cast<std::int32_t>(i) - first_of_op
       << '\t'
       << (span.parent < 0 ? -1 : span.parent - first_of_op) << '\t'
       << SpanNameText(span.name) << '\t' << span.start - origin << '\t'
       << span.end - origin << '\n';
  }
}

}  // namespace perfbench
