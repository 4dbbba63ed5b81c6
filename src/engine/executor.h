// Copyright 2026 The vaolib Authors.
// CqExecutor: runs one continuous query over an interest-style stream and a
// relation, re-evaluating on every stream tick (the paper's Figure 1 system
// with the function-execution and operator modules fused into VAOs).

#ifndef VAOLIB_ENGINE_EXECUTOR_H_
#define VAOLIB_ENGINE_EXECUTOR_H_

#include <memory>

#include "common/work_meter.h"
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
  /// Builds an executor and resolves all column references. \p threads > 1
  /// runs VAO-mode ticks on the shared thread pool: object creation goes
  /// through InvokeAll, each selection refinement notch fans out over the
  /// undecided rows, and MIN/MAX/SUM/AVE run a parallel coarse-convergence
  /// phase (to the query epsilon) before their serial greedy refinement.
  /// Traditional mode ignores \p threads (its baseline costs are charged,
  /// not solved). Requires the query's function to support concurrent
  /// Invoke() -- true for every function in this library, including
  /// CachingFunction.
  ///
  /// \p resilience selects the VAO-mode failure policy (see
  /// ResiliencePolicy); traditional mode ignores it.
  static Result<std::unique_ptr<CqExecutor>> Create(
      const Relation* relation, Schema stream_schema, Query query,
      ExecutionMode mode, int threads = 1,
      ResiliencePolicy resilience = ResiliencePolicy::kStrict);

  /// Re-evaluates the query for \p stream_tuple.
  Result<TickResult> ProcessTick(const Tuple& stream_tuple);

  /// Cumulative work across all ticks so far.
  const WorkMeter& meter() const { return meter_; }
  void ResetMeter() { meter_.Reset(); }

  ExecutionMode mode() const { return mode_; }
  const Query& query() const { return plan_.query(); }
  int threads() const { return threads_; }
  ResiliencePolicy resilience() const { return resilience_; }

 private:
  CqExecutor(const Relation* relation, Schema stream_schema, QueryPlan plan,
             ExecutionMode mode, int threads, ResiliencePolicy resilience);

  /// Every VAO-mode query, selection or aggregate, exact or approximate:
  /// compile the plan over this tick's objects, drive its task to
  /// completion, decode under the resilience policy.
  Result<TickResult> RunVao(const Tuple& stream_tuple);
  Result<TickResult> RunTraditional(const Tuple& stream_tuple);

  /// kDegrade handling of a failed VAO aggregate: when \p cause is a
  /// degradable code, re-answers the tick through the calibrated black-box
  /// path (created lazily) and marks the result degraded; otherwise (or in
  /// strict mode) forwards \p cause. The fallback's report covers only the
  /// fallback work; meter() accumulates both attempts.
  Result<TickResult> FallbackOrError(const Tuple& stream_tuple,
                                     const Status& cause);

  const Relation* relation_;
  Schema stream_schema_;
  QueryPlan plan_;
  ExecutionMode mode_;
  int threads_;
  ResiliencePolicy resilience_;
  WorkMeter meter_;

  /// Calibrated baseline for traditional mode (lazy per-args cache inside).
  std::unique_ptr<vao::CalibratedBlackBox> black_box_;
};

}  // namespace vaolib::engine

#endif  // VAOLIB_ENGINE_EXECUTOR_H_
