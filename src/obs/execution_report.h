// Copyright 2026 The vaolib Authors.
// ExecutionReport: the structured per-query execution account of the
// observability layer. Every CqExecutor tick (and every MultiQueryExecutor
// query phase) attaches one to its result, making the paper's quantitative
// claims -- work units per tuple, cache effectiveness, parallel utilization,
// adaptive short-circuiting -- observable on any individual query instead of
// only as bench-level WorkMeter totals.
//
// The work-by-kind section is an exact delta of the executor's WorkMeter, so
// report.Work().Total() always equals the legacy TickResult::work_units.
// Solver-kind, cache, and thread-pool sections are deltas of process-wide
// instrumentation; they are exact when one query runs at a time and
// best-effort attributions under concurrency.

#ifndef VAOLIB_OBS_EXECUTION_REPORT_H_
#define VAOLIB_OBS_EXECUTION_REPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/work_meter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vaolib::obs {

/// \brief Work units split by the cost-model kinds of Section 3.2.
struct WorkByKind {
  std::uint64_t exec = 0;
  std::uint64_t get_state = 0;
  std::uint64_t store_state = 0;
  std::uint64_t choose_iter = 0;

  std::uint64_t Total() const {
    return exec + get_state + store_state + choose_iter;
  }

  /// Snapshot of \p meter's current per-kind counts.
  static WorkByKind Capture(const WorkMeter& meter);
  WorkByKind DeltaSince(const WorkByKind& before) const;

  bool operator==(const WorkByKind&) const = default;
};

/// \brief Per-shard bounds-cache activity (deltas over a query).
struct CacheShardStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  bool operator==(const CacheShardStats&) const = default;
};

/// \brief Structured account of one query evaluation.
struct ExecutionReport {
  /// Source-level query kind ("select", "select_range", "min", "max",
  /// "sum", "ave", "top_k") or a caller-chosen label.
  std::string query_kind;

  /// Exact WorkMeter delta for this query; Total() matches the legacy
  /// TickResult::work_units.
  WorkByKind work;

  /// Global solver-counter deltas, indexed by SolverKind.
  std::uint64_t solver_work[kNumSolverKinds] = {};

  /// \name Operator phases: Iterate() calls split into the parallel coarse
  /// pre-phase, the serial greedy/adaptive loop, and winner finalization.
  /// @{
  std::uint64_t iterations = 0;
  std::uint64_t coarse_iterations = 0;
  std::uint64_t greedy_iterations = 0;
  std::uint64_t finalize_iterations = 0;
  std::uint64_t choose_steps = 0;
  std::uint64_t objects_touched = 0;
  /// Objects quarantined after a refinement stall (bounds stopped
  /// tightening above minWidth); see OperatorStats::stalled_objects.
  std::uint64_t stalled_objects = 0;
  /// @}

  /// \name Adaptive row accounting: rows whose answer was decided from
  /// bounds alone, without converging the underlying solver.
  /// @{
  std::uint64_t rows_scanned = 0;
  std::uint64_t rows_short_circuited = 0;
  /// Selection rows excluded from the answer: rows whose refinement
  /// stalled (under any resilience policy) and, under
  /// ResiliencePolicy::kDegrade, rows whose evaluation failed (in strict
  /// mode a failing row fails the whole tick).
  std::uint64_t rows_quarantined = 0;
  /// @}

  /// \name Bounds-cache activity (only when the query's function is a
  /// CachingFunction; has_cache is false otherwise).
  /// @{
  bool has_cache = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::vector<CacheShardStats> cache_shards;
  /// @}

  /// \name Shared thread-pool activity during the query.
  /// @{
  std::uint64_t pool_parallel_fors = 0;
  std::uint64_t pool_tasks_enqueued = 0;
  std::uint64_t pool_chunks_executed = 0;
  std::uint64_t pool_queue_wait_nanos = 0;
  /// @}

  /// \name Cross-query scheduling account (engine/scheduler.h). Only
  /// meaningful when `scheduled` is true -- the query ran under a
  /// WorkScheduler with a global work budget; `converged` is then false
  /// whenever the budget ran out before this query finished. The spent
  /// numbers of all queries in one scheduled tick sum exactly to the
  /// scheduler run's WorkMeter delta.
  /// @{
  bool scheduled = false;
  std::string scheduler_policy;
  std::uint64_t scheduler_budget = 0;
  std::uint64_t scheduler_spent = 0;
  std::uint64_t scheduler_steps = 0;
  /// Work-clock time at which this query finished (0 while unfinished).
  std::uint64_t scheduler_finished_at = 0;
  bool converged = true;
  bool starved = false;
  bool missed_deadline = false;
  /// Owning tenant in multi-tenant serving (server/dispatcher.h); empty
  /// outside the server.
  std::string tenant;
  /// @}

  /// \name Answer provenance (the approximate tier). Exact queries keep the
  /// defaults ("exact", confidence 1, zero sample/width fields); sampled
  /// aggregates record their combined-interval decomposition here.
  /// @{
  std::string answer_mode = "exact";
  double answer_confidence = 1.0;
  std::uint64_t sample_size = 0;
  std::uint64_t sample_population = 0;
  double deterministic_width = 0.0;
  double sampling_width = 0.0;
  /// @}

  /// \name Convergence progress (the health plane's per-tick sample;
  /// obs/health.h ProgressRing stores the trajectory). Width fields are 0
  /// for row-valued kinds whose answer carries no interval.
  /// @{
  /// H - L of the tick's answer interval.
  double answer_width = 0.0;
  /// answer_width / max(|L|, |H|); 0 when both endpoints are 0.
  double answer_rel_width = 0.0;
  /// The query finished without reaching its requested epsilon: every
  /// object is at minimum width, so more budget cannot tighten the answer.
  bool limited_by_min_width = false;
  /// @}

  /// Estimator-calibration account of this query's own task, indexed by
  /// SolverKind: the sums of the samples its iterates took (copied from
  /// operators::OperatorStats::calibration; a multi-query tick report sums
  /// its queries'). All zero when obs is disabled or no iterate was sampled.
  CalibrationKindStats calibration[kNumSolverKinds] = {};

  /// Writes the report as one JSON object (TableWriter-style renderer).
  void RenderJson(std::ostream& os) const;

  /// Parses a report previously written by RenderJson (round-trip inverse).
  static Result<ExecutionReport> FromJson(const std::string& json);

  bool operator==(const ExecutionReport&) const = default;
};

/// \brief Bumps the global registry's per-tick metrics (ticks served, work
/// units by kind, a tick-work histogram) from a finished report.
void RecordTickMetrics(const ExecutionReport& report);

}  // namespace vaolib::obs

#endif  // VAOLIB_OBS_EXECUTION_REPORT_H_
