// Copyright 2026 The vaolib Authors.
// CqExecutor: runs one continuous query over an interest-style stream and a
// relation, re-evaluating on every stream tick (the paper's Figure 1 system
// with the function-execution and operator modules fused into VAOs). Its VAO
// mode runs the query as a one-query MultiQueryExecutor group, the engine's
// one VAO tick path, and adds the kDegrade black-box fallback; its
// traditional mode is the paper's Section 6 baseline.

#ifndef VAOLIB_ENGINE_EXECUTOR_H_
#define VAOLIB_ENGINE_EXECUTOR_H_

#include <memory>

#include "common/work_meter.h"
#include "engine/multi_query.h"
#include "engine/query.h"
#include "engine/query_plan.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "vao/black_box.h"

namespace vaolib::engine {

/// \brief Whether a query runs with VAOs or with traditional black-box
/// operators (the Section 6 baseline).
enum class ExecutionMode { kVao, kTraditional };

/// \brief Single-query continuous executor.
///
/// The relation and the query's function are borrowed and must outlive the
/// executor. Each ProcessTick() call is independent; per-object state is not
/// carried across ticks (function caching is orthogonal, Section 3.1).
class CqExecutor {
 public:
  /// Builds an executor and resolves all column references. VAO mode runs
  /// the query as a one-query MultiQueryExecutor with \p threads and
  /// \p resilience (see MultiQueryOptions and ResiliencePolicy) under the
  /// default scheduler, which steps the query's task to completion.
  /// Traditional mode ignores both (its baseline costs are charged, not
  /// solved). Requires the query's function to support concurrent Invoke()
  /// -- true for every function in this library, including CachingFunction.
  static Result<std::unique_ptr<CqExecutor>> Create(
      const Relation* relation, Schema stream_schema, Query query,
      ExecutionMode mode, int threads = 1,
      ResiliencePolicy resilience = ResiliencePolicy::kStrict);

  /// Re-evaluates the query for \p stream_tuple. A VAO-mode result is the
  /// group's, but its work_units and its report's work, solver, cache and
  /// pool sections cover the whole tick, object creation included.
  Result<TickResult> ProcessTick(const Tuple& stream_tuple);

  /// Cumulative work across all ticks so far: VAO work plus black-box
  /// fallback work.
  const WorkMeter& meter() const { return meter_; }
  void ResetMeter() { meter_.Reset(); }

  ExecutionMode mode() const { return mode_; }
  const Query& query() const { return group_->plan(0).query(); }

 private:
  CqExecutor(const Relation* relation, Schema stream_schema,
             ExecutionMode mode, std::unique_ptr<MultiQueryExecutor> group);

  Result<TickResult> RunTraditional(const Tuple& stream_tuple);

  /// kDegrade handling of a failed VAO tick: when \p cause is a degradable
  /// code, re-answers the tick through the calibrated black-box path
  /// (created lazily) and marks the result degraded; otherwise (or in
  /// strict mode) forwards \p cause. The fallback's report covers only the
  /// fallback work; meter() accumulates both attempts.
  Result<TickResult> FallbackOrError(const Tuple& stream_tuple,
                                     const Status& cause);

  const Relation* relation_;
  Schema stream_schema_;
  ExecutionMode mode_;
  WorkMeter meter_;

  /// The one-query group: it holds the query's plan in both modes and runs
  /// VAO mode's ticks. Its meter holds one tick's work.
  std::unique_ptr<MultiQueryExecutor> group_;
  /// Calibrated baseline for traditional mode (lazy per-args cache inside).
  std::unique_ptr<vao::CalibratedBlackBox> black_box_;
};

}  // namespace vaolib::engine

#endif  // VAOLIB_ENGINE_EXECUTOR_H_
