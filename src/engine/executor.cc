#include "engine/executor.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "engine/report_capture.h"
#include "obs/trace.h"
#include "operators/selection.h"
#include "operators/sum_ave.h"
#include "operators/traditional.h"

namespace vaolib::engine {

namespace {

// VAO failures the kDegrade policy may answer through the black-box
// fallback: numeric breakdowns, exhausted iteration budgets, refinement
// stalls. Anything else (bad bindings, empty inputs, ...) stays fatal --
// the traditional path would fail the same way.
bool IsDegradableFailure(const Status& status) {
  return status.Is(StatusCode::kNumericError) ||
         status.Is(StatusCode::kResourceExhausted) ||
         status.Is(StatusCode::kNotConverged);
}

}  // namespace

CqExecutor::CqExecutor(const Relation* relation, Schema stream_schema,
                       ExecutionMode mode,
                       std::unique_ptr<MultiQueryExecutor> group)
    : relation_(relation),
      stream_schema_(std::move(stream_schema)),
      mode_(mode),
      group_(std::move(group)) {}

Result<std::unique_ptr<CqExecutor>> CqExecutor::Create(
    const Relation* relation, Schema stream_schema, Query query,
    ExecutionMode mode, int threads, ResiliencePolicy resilience) {
  if (query.approx.has_value() && mode == ExecutionMode::kTraditional) {
    return Status::InvalidArgument("approximate execution requires VAO mode");
  }
  MultiQueryOptions options;
  options.threads = threads;
  options.resilience = resilience;
  VAOLIB_ASSIGN_OR_RETURN(
      std::unique_ptr<MultiQueryExecutor> group,
      MultiQueryExecutor::Create(relation, stream_schema, {std::move(query)},
                                 options));
  auto executor = std::unique_ptr<CqExecutor>(new CqExecutor(
      relation, std::move(stream_schema), mode, std::move(group)));
  if (mode == ExecutionMode::kTraditional) {
    executor->black_box_ =
        std::make_unique<vao::CalibratedBlackBox>(executor->query().function);
  }
  return executor;
}

Result<TickResult> CqExecutor::ProcessTick(const Tuple& stream_tuple) {
  if (mode_ == ExecutionMode::kTraditional) {
    return RunTraditional(stream_tuple);
  }
  group_->ResetMeter();
  const WorkMeter& tick_meter = group_->meter();
  const ReportCapture capture(tick_meter,
                              ReportCapture::CacheOf(query().function));
  auto ticks = group_->ProcessTick(stream_tuple);
  meter_.Merge(tick_meter);
  if (!ticks.ok()) return FallbackOrError(stream_tuple, ticks.status());
  TickResult result = std::move(ticks->front());
  result.work_units = tick_meter.Total();
  capture.Finish(tick_meter, &result.report);
  return result;
}

Result<TickResult> CqExecutor::FallbackOrError(const Tuple& stream_tuple,
                                               const Status& cause) {
  if (group_->options().resilience != ResiliencePolicy::kDegrade ||
      !IsDegradableFailure(cause)) {
    return cause;
  }
  if (black_box_ == nullptr) {
    black_box_ = std::make_unique<vao::CalibratedBlackBox>(query().function);
  }
  auto fallback = RunTraditional(stream_tuple);
  if (!fallback.ok()) {
    // Even the black box could not answer (e.g. its calibration pass hit the
    // same stall); surface the original VAO failure, which names the root
    // cause, with the fallback's failure appended.
    return cause.WithContext("black-box fallback also failed (" +
                             fallback.status().ToString() + ")");
  }
  TickResult result = std::move(fallback).value();
  result.degraded = true;
  result.degradation_cause = cause;
  return result;
}

Result<TickResult> CqExecutor::RunTraditional(const Tuple& stream_tuple) {
  if (stream_tuple.size() != stream_schema_.size()) {
    return Status::InvalidArgument("stream tuple does not match schema");
  }
  if (relation_->size() == 0) {
    return Status::FailedPrecondition("relation is empty");
  }
  const Query& query = group_->plan(0).query();
  const obs::ScopedSpan tick_span("tick", "traditional");
  TickResult result;
  result.kind = query.kind;
  const std::uint64_t work_before = meter_.Total();
  const ReportCapture capture(meter_, ReportCapture::CacheOf(query.function));
  const std::size_t n = relation_->size();

  VAOLIB_ASSIGN_OR_RETURN(const std::vector<std::vector<double>> rows,
                          group_->plan(0).BuildRows(stream_tuple));

  switch (query.kind) {
    case QueryKind::kSelect: {
      const operators::TraditionalSelection op(query.cmp, query.constant);
      for (std::size_t row = 0; row < n; ++row) {
        VAOLIB_ASSIGN_OR_RETURN(const bool passes,
                                op.Evaluate(*black_box_, rows[row], &meter_));
        if (passes) result.passing_rows.push_back(row);
      }
      break;
    }
    case QueryKind::kSelectRange: {
      for (std::size_t row = 0; row < n; ++row) {
        VAOLIB_ASSIGN_OR_RETURN(const double value,
                                black_box_->Call(rows[row], &meter_));
        const bool passes =
            query.range_inclusive
                ? value >= query.range_lo && value <= query.range_hi
                : value > query.range_lo && value < query.range_hi;
        if (passes) result.passing_rows.push_back(row);
      }
      break;
    }
    case QueryKind::kMax:
    case QueryKind::kMin: {
      const auto kind = query.kind == QueryKind::kMax
                            ? operators::ExtremeKind::kMax
                            : operators::ExtremeKind::kMin;
      VAOLIB_ASSIGN_OR_RETURN(
          const operators::TraditionalExtremeOutcome outcome,
          operators::TraditionalExtreme(*black_box_, rows, kind, &meter_));
      result.winner_row = outcome.winner_index;
      result.aggregate_bounds = Bounds::Point(outcome.value);
      break;
    }
    case QueryKind::kSum:
    case QueryKind::kAve: {
      VAOLIB_ASSIGN_OR_RETURN(const std::vector<double> weights,
                              group_->plan(0).ResolveWeights());
      VAOLIB_ASSIGN_OR_RETURN(
          const operators::TraditionalSumOutcome outcome,
          operators::TraditionalWeightedSum(*black_box_, rows, weights,
                                            &meter_));
      result.aggregate_bounds = Bounds::Point(outcome.sum);
      break;
    }
    case QueryKind::kTopK: {
      if (query.k < 1 || query.k > n) {
        return Status::InvalidArgument("top-k k out of range");
      }
      std::vector<std::pair<double, std::size_t>> valued(n);
      for (std::size_t row = 0; row < n; ++row) {
        VAOLIB_ASSIGN_OR_RETURN(const double value,
                                black_box_->Call(rows[row], &meter_));
        valued[row] = {value, row};
      }
      std::sort(valued.begin(), valued.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      for (std::size_t i = 0; i < query.k; ++i) {
        result.top_rows.push_back(valued[i].second);
        result.top_bounds.push_back(Bounds::Point(valued[i].first));
      }
      result.winner_row = result.top_rows.front();
      result.aggregate_bounds = result.top_bounds.front();
      break;
    }
  }
  result.work_units = meter_.Total() - work_before;
  result.report.query_kind = QueryKindName(query.kind);
  result.report.rows_scanned = n;  // traditional mode never short-circuits
  FillOperatorSection(result.stats, &result.report);
  FillProgressSection(result, query.epsilon, &result.report);
  capture.Finish(meter_, &result.report);
  obs::RecordTickMetrics(result.report);
  return result;
}

}  // namespace vaolib::engine
