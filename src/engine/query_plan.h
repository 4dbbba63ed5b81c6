// Copyright 2026 The vaolib Authors.
// QueryPlan: the engine's one query compiler.
//
// Each query is planned once -- by MultiQueryExecutor::Create (and so by
// CqExecutor), or by the server's dispatcher at REGISTER -- and the plan
// then lives in its group's executor. Planning validates the query against
// the stream and relation schemas (function, arity, argument bindings,
// weight column, APPROX spec) and binds the arguments. On every tick the plan compiles the query into a resumable
// IterationTask over that tick's result objects, plus the decoder that
// turns the task's state into the query's TickResult and report sections.
// Approximate queries compile into tasks over private row samples instead
// of the shared objects. MultiQueryExecutor, the one VAO tick path (a
// CqExecutor runs a one-query group), steps every task by a WorkScheduler.

#ifndef VAOLIB_ENGINE_QUERY_PLAN_H_
#define VAOLIB_ENGINE_QUERY_PLAN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/work_meter.h"
#include "engine/query.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "obs/execution_report.h"
#include "operators/iteration_task.h"
#include "vao/answer.h"

namespace vaolib::engine {

/// \brief How a VAO-mode tick reacts to result-object failures (NaN/Inf or
/// inverted bounds, Invoke() and Iterate() errors, iteration budgets).
/// Refinement stalls are not failures: under either policy a stalled
/// selection row is quarantined and a stalled aggregate object keeps its
/// frozen sound bounds, and the tick is marked degraded.
enum class ResiliencePolicy {
  /// Any failing row/object fails the whole tick with its Status (default).
  kStrict,
  /// Selections quarantine failing rows (excluded from passing_rows,
  /// reported in TickResult::quarantined_rows) and still answer; aggregates
  /// whose VAO evaluation fails with a degradable code (NumericError,
  /// ResourceExhausted, NotConverged) fall back to the calibrated black-box
  /// path and mark the result degraded. Crashes and hangs become answers
  /// with an attached cause, never silent wrong results.
  kDegrade,
};

/// \brief Output of one stream tick.
struct TickResult {
  QueryKind kind = QueryKind::kSelect;

  /// kSelect: indices of relation rows whose predicate passed.
  std::vector<std::size_t> passing_rows;

  /// kMax/kMin: the winning relation row.
  std::optional<std::size_t> winner_row;

  /// kTopK: selected rows (most extreme first) and their bounds.
  std::vector<std::size_t> top_rows;
  std::vector<Bounds> top_bounds;
  /// True when the winner is only determined up to minWidth ties.
  bool tie = false;

  /// Aggregate output: hard bounds in exact mode (degenerate [v, v] in
  /// traditional mode), a probabilistic combined interval with provenance
  /// when the query requested approximate execution. Assigning a plain
  /// Bounds keeps the exact semantics (mode = kExact, confidence 1).
  vao::Answer aggregate_bounds;

  operators::OperatorStats stats;
  /// Work units charged during this tick (all WorkKinds).
  std::uint64_t work_units = 0;

  /// False when a scheduled tick's work budget ran out before this query
  /// finished: the answer above is then a sound partial result (aggregate
  /// bounds are an envelope containing the true value; undecided selection
  /// rows resolve by their current bounds). Always true without a budget,
  /// which drives every query to convergence.
  bool converged = true;

  /// \name Resilience accounting. Failing rows are quarantined and failed
  /// aggregates fall back to the black box only under
  /// ResiliencePolicy::kDegrade. Stalls degrade the tick in any policy and
  /// in both executors: a stalled selection row is quarantined, and an
  /// aggregate that quarantined stalled objects (or a sampled aggregate
  /// that ran out of rows) answers soundly but coarser than requested.
  /// @{
  /// True when any quarantine or black-box fallback happened this tick.
  bool degraded = false;
  /// The first failure that triggered degradation (OK when !degraded); for
  /// selections, the lowest quarantined row's status.
  Status degradation_cause;
  /// kSelect/kSelectRange: rows that failed or stalled; they are excluded
  /// from passing_rows (ascending order).
  std::vector<std::size_t> quarantined_rows;
  /// @}

  /// Structured observability account of this tick; report.work.Total()
  /// always equals work_units.
  obs::ExecutionReport report;
};

/// \brief Fills \p report's convergence-progress section (obs/health.h feeds
/// these into per-query ProgressRings) from one query's finished tick.
/// Interval-valued kinds (extremes, aggregates, TOP-K) report the answer
/// interval's width and relative width; selections report 0.
/// limited_by_min_width marks a tick that finished (not cut off by a
/// scheduler budget) yet could not reach the requested precision: an
/// aggregate still wider than epsilon, or an extreme/TOP-K decided only up
/// to minWidth ties. More budget cannot tighten such an answer.
inline void FillProgressSection(const TickResult& result, double epsilon,
                                obs::ExecutionReport* report) {
  const bool interval_kind = result.kind != QueryKind::kSelect &&
                             result.kind != QueryKind::kSelectRange;
  double width = 0.0;
  double rel = 0.0;
  if (interval_kind) {
    width = result.aggregate_bounds.Width();
    const double scale = std::max(std::fabs(result.aggregate_bounds.lo),
                                  std::fabs(result.aggregate_bounds.hi));
    if (!std::isfinite(width)) width = 0.0;  // unbounded: no useful sample
    if (scale > 0.0 && std::isfinite(scale)) rel = width / scale;
  }
  report->answer_width = width;
  report->answer_rel_width = rel;
  const bool epsilon_kind =
      result.kind == QueryKind::kSum || result.kind == QueryKind::kAve;
  report->limited_by_min_width =
      result.converged &&
      ((epsilon_kind && width > epsilon) || (interval_kind && result.tie));
}

/// \brief Copies the operator-phase section of \p stats into \p report.
void FillOperatorSection(const operators::OperatorStats& stats,
                         obs::ExecutionReport* report);

/// \brief What one tick hands the compiler.
struct TickInputs {
  /// The tick's stream tuple; sampled tasks read it lazily, so it must
  /// outlive the compiled task.
  const Tuple* stream_tuple = nullptr;
  /// The tick's result objects, one per relation row (exact kinds iterate
  /// these; approximate kinds never read them). Must outlive the task.
  const std::vector<vao::ResultObject*>* objects = nullptr;
  /// Charged for every Iterate() and chooseIter step; required.
  WorkMeter* meter = nullptr;
  /// > 1 runs MIN/MAX/SUM/AVE's parallel coarse phase, selection rows and
  /// sampled TOP-K object creation on the shared pool.
  int threads = 1;
  /// Per-row Invoke() statuses, parallel to `objects`, when some rows
  /// failed to materialize (their objects are null); selections settle
  /// those rows as failed. Empty: every object is live.
  std::vector<Status> invoke_status;
};

/// \brief One query compiled for one tick: its resumable task and the
/// decoder that reads the answer back out of it.
class CompiledQuery {
 public:
  /// The task to step; it charges TickInputs::meter.
  operators::IterationTask* task() const { return task_.get(); }

  /// Fills \p result from the task's current state -- sound at any point,
  /// converged or cut off by a budget: the answer fields, `converged`,
  /// `degraded`/`degradation_cause` (stalled objects, exhausted samples,
  /// quarantined rows), `stats`, and the report's query kind, row
  /// accounting, operator, answer-provenance and progress sections. Work
  /// and scheduling sections are the caller's. \p policy decides a failed
  /// selection row: under kStrict the lowest failed row's error is
  /// returned, under kDegrade the row is quarantined. Stalled rows are
  /// quarantined under both.
  Status Decode(ResiliencePolicy policy, TickResult* result) const;

 private:
  friend class QueryPlan;

  const Query* query_ = nullptr;
  std::size_t population_ = 0;
  std::unique_ptr<operators::IterationTask> task_;
  /// Selections read the per-row bounds back from these.
  std::vector<vao::ResultObject*> objects_;
  /// Approximate TOP-K: the sampled rows and their private objects.
  std::vector<std::size_t> sample_rows_;
  std::vector<vao::ResultObjectPtr> sample_objects_;
};

/// \brief A validated, bound query, compiled afresh on every tick.
class QueryPlan {
 public:
  /// Validates \p query against the schemas and binds its arguments:
  /// InvalidArgument for a missing function, an arity mismatch or a bad
  /// APPROX spec (APPROX on a kind other than SUM/AVE/TOP-K, confidence
  /// outside (0, 1), relative error <= 0); NotFound for an unknown binding
  /// or weight column. \p relation is borrowed and must outlive the plan.
  static Result<QueryPlan> Create(const Query& query,
                                  const Schema& stream_schema,
                                  const Relation* relation);

  const Query& query() const { return query_; }

  /// The function's argument vector for relation row \p row.
  Result<std::vector<double>> BuildArgs(const Tuple& stream_tuple,
                                        std::size_t row) const;
  /// Argument vectors for every relation row (the bulk-invoke input).
  Result<std::vector<std::vector<double>>> BuildRows(
      const Tuple& stream_tuple) const;

  /// SUM/AVE row weights: the weight column, or the kind's default
  /// (1 for SUM, 1/n for AVE).
  Result<std::vector<double>> ResolveWeights() const;

  /// Compiles the query into this tick's task. Exact kinds iterate
  /// \p inputs.objects; approximate SUM/AVE sample rows through a
  /// SampledSumTask and approximate TOP-K runs the exact operator over an
  /// upfront uniform row sample (a heuristic tier: its answer is marked
  /// approximate with confidence 0). Compilation may already charge work:
  /// sampled tasks draw their initial sample here. The plan must outlive
  /// the compiled query (its decoder and sampled tasks read the plan).
  Result<CompiledQuery> Compile(const TickInputs& inputs) const;

 private:
  struct BoundArg {
    ArgRef::Source source = ArgRef::Source::kConstant;
    std::size_t index = 0;
    double constant = 0.0;
  };

  QueryPlan(const Query& query, const Relation* relation)
      : query_(query), relation_(relation) {}

  Query query_;
  const Relation* relation_;
  std::vector<BoundArg> bound_args_;
};

}  // namespace vaolib::engine

#endif  // VAOLIB_ENGINE_QUERY_PLAN_H_
